package sweep

import (
	"math"
	"strings"
	"testing"
)

func TestAsciiPlotBasics(t *testing.T) {
	s := Series{Name: "line", Marker: '*', X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}}
	out := AsciiPlot("title", 20, 8, s)
	if !strings.Contains(out, "title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "*") {
		t.Error("missing markers")
	}
	if !strings.Contains(out, "*=line") {
		t.Error("missing legend")
	}
	// A rising line puts a marker in the top row and the bottom row.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "*") {
		t.Error("max row lacks marker")
	}
}

func TestAsciiPlotEmpty(t *testing.T) {
	out := AsciiPlot("nothing", 20, 8)
	if !strings.Contains(out, "(no data)") {
		t.Error("empty plot should say so")
	}
}

func TestAsciiPlotIgnoresNaNAndInf(t *testing.T) {
	s := Series{Name: "s", Marker: 'o', X: []float64{0, 1, 2}, Y: []float64{1, math.NaN(), math.Inf(1)}}
	out := AsciiPlot("t", 20, 6, s)
	if strings.Count(out, "o") < 1 {
		t.Error("valid point missing")
	}
}

func TestAsciiPlotDegenerateRanges(t *testing.T) {
	s := Series{Name: "flat", Marker: '+', X: []float64{1, 1}, Y: []float64{5, 5}}
	out := AsciiPlot("flat", 20, 6, s)
	if !strings.Contains(out, "+") {
		t.Error("flat series missing")
	}
}

func TestAsciiPlotMinimumDimensions(t *testing.T) {
	s := Series{Name: "s", Marker: '*', X: []float64{0, 1}, Y: []float64{0, 1}}
	out := AsciiPlot("t", 1, 1, s)
	if len(strings.Split(out, "\n")) < 6 {
		t.Error("plot smaller than clamped minimum")
	}
}
