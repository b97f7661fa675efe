package sweep

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func sampleTable() Table {
	t := Table{
		ID:      "t1",
		Title:   "sample",
		Columns: []string{"x", "y"},
		Notes:   []string{"note one"},
	}
	t.AddRow(0.1, 150)
	t.AddRow(0.2, 300.25)
	return t
}

func TestAddRowPanicsOnMismatch(t *testing.T) {
	tab := sampleTable()
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow accepted wrong arity")
		}
	}()
	tab.AddRow(1, 2, 3)
}

func TestFormat(t *testing.T) {
	tab := sampleTable()
	var sb strings.Builder
	if err := tab.Format(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"t1", "sample", "x", "y", "0.1000", "150", "# note one"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestCSV(t *testing.T) {
	tab := sampleTable()
	var sb strings.Builder
	if err := tab.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}
	if lines[0] != "x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.1000,") {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestFormatCell(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{150, "150"},
		{0.25, "0.2500"},
		{1234.56, "1234.6"},
		{3.14159, "3.14"},
		{math.NaN(), ""},
	}
	for _, tc := range tests {
		if got := formatCell(tc.v); got != tc.want {
			t.Errorf("formatCell(%g) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// TestFormatCellMatchesFmt holds the strconv calls formatCell makes to
// fmt's %.Nf, which the tables were printed with before, at each precision
// formatCell uses: on signed zeros and infinities, on both sides of the
// bounds formatCell branches at and on halfway cases. Every value, and a
// million random bit patterns, also go through formatCell whole against
// the same branches written with fmt.
func TestFormatCellMatchesFmt(t *testing.T) {
	fmtCell := func(v float64) string {
		switch {
		case math.IsNaN(v):
			return ""
		case v == math.Trunc(v) && math.Abs(v) < 1e15:
			return fmt.Sprintf("%.0f", v)
		case math.Abs(v) >= 100:
			return fmt.Sprintf("%.1f", v)
		case math.Abs(v) >= 1:
			return fmt.Sprintf("%.2f", v)
		default:
			return fmt.Sprintf("%.4f", v)
		}
	}
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		0.5, 1.5, 2.5, 0.25, 0.125, 0.05, 0.15, 0.005, 0.015, 0.00005, 0.00015, 0.000025, 99.95, 100.05, 1.005, 2.675, 0.99995}
	for _, b := range []float64{1e15, 100, 1} {
		for _, x := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)), b - 0.5, b + 0.5, b - 1e-9, b + 1e-9} {
			vals = append(vals, x, -x)
		}
	}
	for _, v := range vals {
		for _, n := range []int{0, 1, 2, 4} {
			if got, want := strconv.FormatFloat(v, 'f', n, 64), fmt.Sprintf("%.*f", n, v); got != want {
				t.Errorf("FormatFloat(%v, 'f', %d) = %q, fmt %%.%df = %q", v, n, got, n, want)
			}
		}
		if got, want := formatCell(v), fmtCell(v); got != want {
			t.Errorf("formatCell(%v) = %q, want %q", v, got, want)
		}
	}
	// A million bit patterns with any mantissa and sign and a binary
	// exponent within ±60 — every branch, 1e15 = 2^49.8 included — and ten
	// thousand with any bits at all.
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 1_010_000; k++ {
		bits := rng.Uint64()
		if k < 1_000_000 {
			bits = bits&(1<<63|(1<<52-1)) | uint64(1023-60+rng.Intn(121))<<52
		}
		v := math.Float64frombits(bits)
		if got, want := formatCell(v), fmtCell(v); got != want {
			t.Fatalf("formatCell(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestFormatPadsLikeFmt holds Format's padding to fmt's %*s, which pads
// by runes: a column whose name is wider in bytes than in runes gets as
// many spaces as fmt gives it.
func TestFormatPadsLikeFmt(t *testing.T) {
	tab := Table{ID: "t2", Title: "padding", Columns: []string{"load", "λ_max", "delay_µs"}, Notes: []string{"one", "two"}}
	tab.AddRow(0.1, 1234.5, 3)
	tab.AddRow(12, math.NaN(), -0.25)
	tab.AddRow(math.Inf(-1), 1e15, math.Copysign(0, -1))
	var want strings.Builder
	fmt.Fprintf(&want, "== %s: %s ==\n", tab.ID, tab.Title)
	widths := make([]int, len(tab.Columns))
	for i, c := range tab.Columns {
		widths[i] = len(c)
		for _, row := range tab.Rows {
			widths[i] = max(widths[i], len(formatCell(row[i])))
		}
	}
	for i, c := range tab.Columns {
		if i > 0 {
			want.WriteString("  ")
		}
		fmt.Fprintf(&want, "%*s", widths[i], c)
	}
	want.WriteByte('\n')
	for _, row := range tab.Rows {
		for i, v := range row {
			if i > 0 {
				want.WriteString("  ")
			}
			fmt.Fprintf(&want, "%*s", widths[i], formatCell(v))
		}
		want.WriteByte('\n')
	}
	for _, n := range tab.Notes {
		fmt.Fprintf(&want, "# %s\n", n)
	}
	want.WriteByte('\n')
	var got strings.Builder
	if err := tab.Format(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("Format:\n%s\nwant (fmt):\n%s", got.String(), want.String())
	}
}

// BenchmarkTableFormat formats five 200-row tables shaped like Fig. 7's
// panels: a load column, then delay, power and frequency columns whose
// cells take every branch of formatCell, a NaN gap among them.
func BenchmarkTableFormat(b *testing.B) {
	tables := make([]Table, 5)
	for ti := range tables {
		t := &tables[ti]
		t.ID, t.Title = "fig7x", "synthetic panel"
		t.Columns = []string{"load", "NoDVFS_ns", "RMSD_ns", "DMSD_ns", "NoDVFS_mW", "RMSD_mW", "DMSD_GHz"}
		t.Notes = []string{"calibration: saturation=0.400 λmax=0.360"}
		for r := 0; r < 200; r++ {
			x := float64(r*37%200) / 200
			row := []float64{0.0018 * float64(r+1), 40.123 + 300*x, 150 + 900*x, float64(100 + r), 20 + 80*x, 0.5 + x, 0.333 + 0.667*x}
			if r%50 == 7 {
				row[2] = math.NaN()
			}
			t.AddRow(row...)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ti := range tables {
			if err := tables[ti].Format(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}
