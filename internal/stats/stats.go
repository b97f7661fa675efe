// Package stats provides the streaming statistics used by the simulator:
// running means, fixed-bin histograms for latency distributions, and
// windowed accumulators for the DVFS control loop.
package stats

import (
	"fmt"
	"math"
)

// Stream accumulates the count and mean of a sequence of observations in
// a single pass (Welford's update). The zero value is ready to use.
type Stream struct {
	n    int64
	mean float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
}

// N returns the number of observations.
func (s *Stream) N() int64 { return s.n }

// Mean returns the sample mean, or 0 with no observations.
func (s *Stream) Mean() float64 { return s.mean }

// Histogram is a fixed-width-bin histogram over [lo, hi) with overflow and
// underflow bins, supporting approximate quantiles. A histogram built with
// NewExtendingHistogram additionally widens its range on demand (trading
// resolution for coverage) so quantiles are never silently clamped at hi.
type Histogram struct {
	lo, hi float64
	hi0    float64 // the hi it was built with, which Reset restores
	// maxHi > hi enables range extension: when a sample lands at or above
	// hi, the range doubles in place (adjacent bin pairs merge) until the
	// sample fits or maxHi is reached. 0 disables extension.
	maxHi float64
	bins  []int64
	under int64
	over  int64
	n     int64
}

// NewHistogram creates a histogram with nbins bins spanning [lo, hi).
// Samples at or above hi land in an overflow bin and clamp Quantile at hi;
// use NewExtendingHistogram when the upper range is not known in advance.
func NewHistogram(lo, hi float64, nbins int) (*Histogram, error) {
	if !(lo < hi) || nbins < 1 {
		return nil, fmt.Errorf("stats: bad histogram spec [%g,%g)/%d", lo, hi, nbins)
	}
	return &Histogram{lo: lo, hi: hi, hi0: hi, bins: make([]int64, nbins)}, nil
}

// NewExtendingHistogram creates a histogram spanning [lo, hi) that doubles
// its range in place — merging adjacent bin pairs, so no allocation — each
// time a sample lands at or above the current hi, up to maxHi. nbins must
// be even so pairs merge cleanly.
func NewExtendingHistogram(lo, hi float64, nbins int, maxHi float64) (*Histogram, error) {
	if nbins%2 != 0 {
		return nil, fmt.Errorf("stats: extending histogram needs an even bin count, got %d", nbins)
	}
	if !(maxHi > hi) {
		return nil, fmt.Errorf("stats: extension limit %g must exceed hi %g", maxHi, hi)
	}
	h, err := NewHistogram(lo, hi, nbins)
	if err != nil {
		return nil, err
	}
	h.maxHi = maxHi
	return h, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.n++
	if x < h.lo {
		h.under++
		return
	}
	for x >= h.hi && h.hi < h.maxHi {
		h.extend()
	}
	if x >= h.hi {
		h.over++
		return
	}
	i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.bins)))
	if i == len(h.bins) { // guard rounding at the top edge
		i--
	}
	h.bins[i]++
}

// Reset empties the histogram and restores the range it was built with,
// keeping its bins: reset, it reads exactly as a new one does.
func (h *Histogram) Reset() {
	h.hi = h.hi0
	clear(h.bins)
	h.under, h.over, h.n = 0, 0, 0
}

// extend doubles the histogram range in place: adjacent bin pairs merge
// into the lower half and the upper half opens up at twice the bin width.
func (h *Histogram) extend() {
	half := len(h.bins) / 2
	for i := 0; i < half; i++ {
		h.bins[i] = h.bins[2*i] + h.bins[2*i+1]
	}
	for i := half; i < len(h.bins); i++ {
		h.bins[i] = 0
	}
	h.hi = h.lo + 2*(h.hi-h.lo)
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) using
// bin midpoints; underflow maps to lo and overflow to hi.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	cum := h.under
	if cum >= target {
		return h.lo
	}
	w := (h.hi - h.lo) / float64(len(h.bins))
	for i, c := range h.bins {
		cum += c
		if cum >= target {
			return h.lo + float64((float64(i)+0.5)*w)
		}
	}
	return h.hi
}

// Window accumulates a sum and count that the caller periodically drains;
// it backs the DVFS controllers' per-control-period measurements.
type Window struct {
	sum   float64
	count int64
}

// Add records one observation.
func (w *Window) Add(x float64) { w.sum += x; w.count++ }

// Drain returns the window's sum and count and resets it.
func (w *Window) Drain() (sum float64, count int64) {
	sum, count = w.sum, w.count
	w.sum, w.count = 0, 0
	return sum, count
}
