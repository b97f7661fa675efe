package sweep

import (
	"math"
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
