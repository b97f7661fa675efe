package sweep

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve for ASCII plotting.
type Series struct {
	Name   string
	Marker byte
	X, Y   []float64
}

// AsciiPlot renders one or more series on a shared text canvas — enough
// to eyeball the reproduced figure shapes in a terminal (the delay
// anomaly, the flat DMSD curve) without any plotting dependency.
func AsciiPlot(title string, width, height int, series ...Series) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		for i := range s.X {
			if math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			points++
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if points == 0 {
		return title + "\n(no data)\n"
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range series {
		for i := range s.X {
			if math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			c := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			r := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			grid[r][c] = s.Marker
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%10.4g ┤%s\n", ymax, string(grid[0]))
	for r := 1; r < height-1; r++ {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(grid[r]))
	}
	fmt.Fprintf(&b, "%10.4g ┤%s\n", ymin, string(grid[height-1]))
	fmt.Fprintf(&b, "%10s  %-8.4g%s%8.4g\n", "", xmin,
		strings.Repeat(" ", maxInt(0, width-16)), xmax)
	legend := make([]string, 0, len(series))
	for _, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", s.Marker, s.Name))
	}
	fmt.Fprintf(&b, "%10s  %s\n", "", strings.Join(legend, "  "))
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
