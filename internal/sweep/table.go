// Package sweep regenerates every table and figure of the paper's
// evaluation as numeric tables: the RMSD anomaly plots (Fig. 2), the
// three-policy frequency/delay comparison (Fig. 4), the 28-nm
// voltage-frequency curve (Fig. 5), the power comparison (Fig. 6), the
// synthetic-traffic study (Fig. 7), the sensitivity analysis (Fig. 8), the
// multimedia workloads (Fig. 10), plus the PI-transient and summary
// analyses backing the paper's prose claims.
package sweep

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is one reproduced figure panel (or table) as columns of numbers.
type Table struct {
	// ID identifies the panel, e.g. "fig2a".
	ID string
	// Title is the human-readable caption.
	Title string
	// Columns names each column.
	Columns []string
	// Rows holds the data, one row per x-axis sample.
	Rows [][]float64
	// Notes carries provenance remarks (calibration values, annotations
	// to compare against the paper).
	Notes []string
}

// AddRow appends one data row; it panics on column-count mismatch, which
// is a programming error in a figure generator.
func (t *Table) AddRow(vals ...float64) {
	if len(vals) != len(t.Columns) {
		panic(fmt.Sprintf("sweep: row with %d values for %d columns in %s", len(vals), len(t.Columns), t.ID))
	}
	t.Rows = append(t.Rows, vals)
}

// Format writes the table as aligned text.
func (t *Table) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			cells[r][i] = formatCell(v)
			if len(cells[r][i]) > widths[i] {
				widths[i] = len(cells[r][i])
			}
		}
	}
	var b strings.Builder
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%*s", widths[i], c)
	}
	b.WriteByte('\n')
	for r := range cells {
		for i, cell := range cells[r] {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values with a header row.
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = formatCell(v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	return nil
}

// formatCell renders a value compactly: integers without decimals, small
// magnitudes with enough precision, NaN as empty.
func formatCell(v float64) string {
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
