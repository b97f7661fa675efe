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
	"strconv"
	"strings"
	"unicode/utf8"
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

// Format writes the table as aligned text: each column right-aligned to
// its widest cell, padded as fmt's %*s pads (by runes).
func (t *Table) Format(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	ends := make([]int, 0, len(t.Rows)*len(t.Columns))
	text := make([]byte, 0, 8*cap(ends)) // every cell's text, row after row
	for _, row := range t.Rows {
		for i, v := range row {
			start := len(text)
			text = appendCell(text, v)
			ends = append(ends, len(text))
			widths[i] = max(widths[i], len(text)-start)
		}
	}
	line := 0 // bytes of one row's line, unless a cell is wider in bytes than in runes
	for _, n := range widths {
		line += n + 2
	}
	b := make([]byte, 0, len(t.ID)+len(t.Title)+(len(t.Rows)+2)*line+64*len(t.Notes))
	b = append(append(append(append(append(b, "== "...), t.ID...), ": "...), t.Title...), " ==\n"...)
	for i, c := range t.Columns {
		b = appendPadded(b, i, widths[i]-utf8.RuneCountInString(c))
		b = append(b, c...)
	}
	b = append(b, '\n')
	start := 0
	for _, row := range t.Rows {
		for i := range row {
			cell := text[start:ends[0]]
			start, ends = ends[0], ends[1:]
			b = appendPadded(b, i, widths[i]-utf8.RuneCount(cell))
			b = append(b, cell...)
		}
		b = append(b, '\n')
	}
	for _, n := range t.Notes {
		b = append(append(append(b, "# "...), n...), '\n')
	}
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}

// appendPadded appends what goes before column i's cell: two spaces after
// the column before it, then pad spaces.
func appendPadded(b []byte, i, pad int) []byte {
	if i > 0 {
		b = append(b, "  "...)
	}
	for ; pad > 0; pad-- {
		b = append(b, ' ')
	}
	return b
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
	return string(appendCell(nil, v))
}

// appendCell appends formatCell's text for v, which for each branch is
// what fmt's %.Nf prints.
func appendCell(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return b
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.AppendFloat(b, v, 'f', 0, 64)
	case math.Abs(v) >= 100:
		return strconv.AppendFloat(b, v, 'f', 1, 64)
	case math.Abs(v) >= 1:
		return strconv.AppendFloat(b, v, 'f', 2, 64)
	default:
		return strconv.AppendFloat(b, v, 'f', 4, 64)
	}
}
