package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestStreamBasics(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %g, want 5", s.Mean())
	}
}

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.N() != 0 {
		t.Error("empty stream should report zeros")
	}
}

func TestStreamSingleObservation(t *testing.T) {
	var s Stream
	s.Add(3.5)
	if s.N() != 1 || s.Mean() != 3.5 {
		t.Errorf("single observation: n=%d mean=%g, want 1 and 3.5", s.N(), s.Mean())
	}
}

// Reset discards all observations.
func (s *Stream) Reset() { *s = Stream{} }

func TestStreamReset(t *testing.T) {
	var s Stream
	s.Add(1)
	s.Add(2)
	s.Reset()
	if s.N() != 0 || s.Mean() != 0 {
		t.Error("reset did not clear stream")
	}
}

func TestStreamMatchesNaiveQuick(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Stream
		sum := 0.0
		for _, r := range raw {
			s.Add(float64(r))
			sum += float64(r)
		}
		return almostEqual(s.Mean(), sum/float64(len(raw)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("accepted lo==hi")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("accepted zero bins")
	}
	if _, err := NewHistogram(2, 1, 4); err == nil {
		t.Error("accepted lo>hi")
	}
}

func TestHistogramCountsAndMean(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 0.5, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	bins, under, over := h.bins, h.under, h.over
	if under != 1 {
		t.Errorf("under = %d, want 1", under)
	}
	if over != 2 {
		t.Errorf("over = %d, want 2 (10 and 42)", over)
	}
	if bins[0] != 2 {
		t.Errorf("bin0 = %d, want 2", bins[0])
	}
	if bins[5] != 1 || bins[9] != 1 {
		t.Errorf("bins = %v", bins)
	}
	if h.n != 7 {
		t.Errorf("n = %d, want 7", h.n)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, err := NewHistogram(0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	// The median of 0..99 is ~49.5; bin midpoints give 49.5.
	if q := h.Quantile(0.5); math.Abs(q-49.5) > 1.0 {
		t.Errorf("median = %g, want ~49.5", q)
	}
	if q := h.Quantile(0.99); math.Abs(q-98.5) > 1.5 {
		t.Errorf("p99 = %g, want ~98.5", q)
	}
	if q := h.Quantile(0); math.Abs(q-0.5) > 1 {
		t.Errorf("q0 = %g, want first bin", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h, _ := NewHistogram(0, 1, 4)
	if h.Quantile(0.5) != 0 {
		t.Error("quantile of empty histogram should be 0")
	}
}

func TestHistogramQuantileOverflowDominant(t *testing.T) {
	h, _ := NewHistogram(0, 1, 4)
	for i := 0; i < 10; i++ {
		h.Add(5) // all overflow
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Errorf("overflow median = %g, want hi=1", q)
	}
}

func TestWindowDrain(t *testing.T) {
	var w Window
	for _, x := range []float64{2, 4, 5, 5} {
		w.Add(x)
	}
	sum, count := w.Drain()
	if sum != 16 || count != 4 {
		t.Errorf("drain = %g/%d, want 16/4", sum, count)
	}
	if sum, count := w.Drain(); sum != 0 || count != 0 {
		t.Errorf("drain did not reset: %g/%d", sum, count)
	}
}

func TestExtendingHistogramValidation(t *testing.T) {
	if _, err := NewExtendingHistogram(0, 10, 5, 100); err == nil {
		t.Error("accepted odd bin count")
	}
	if _, err := NewExtendingHistogram(0, 10, 4, 10); err == nil {
		t.Error("accepted maxHi == hi")
	}
	if _, err := NewExtendingHistogram(0, 10, 4, 5); err == nil {
		t.Error("accepted maxHi < hi")
	}
	if _, err := NewExtendingHistogram(10, 10, 4, 100); err == nil {
		t.Error("accepted lo == hi")
	}
}

func TestExtendingHistogramGrowsRange(t *testing.T) {
	h, err := NewExtendingHistogram(0, 10, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.Add(float64(i)) // one per bin
	}
	// A sample at 35 forces two doublings: 10 -> 20 -> 40.
	h.Add(35)
	if hi := h.hi; hi != 40 {
		t.Fatalf("hi = %g after extension, want 40", hi)
	}
	bins, under, over := h.bins, h.under, h.over
	if under != 0 || over != 0 {
		t.Errorf("under=%d over=%d, want 0/0 after extension", under, over)
	}
	// Original ten samples merged into the bottom fourth (bin width 4).
	var lowCount int64
	for _, c := range bins[:3] {
		lowCount += c
	}
	if lowCount != 10 {
		t.Errorf("low bins hold %d samples, want all 10 originals", lowCount)
	}
	if bins[8] != 1 { // 35 lands in [32,36)
		t.Errorf("bins = %v, want the extension sample in bin 8", bins)
	}
	if h.n != 11 {
		t.Errorf("n = %d, want 11", h.n)
	}
}

func TestExtendingHistogramQuantileNotClamped(t *testing.T) {
	h, err := NewExtendingHistogram(0, 10, 10, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Add(float64(i * 50)) // 0..4950, far past the initial hi
	}
	if hi := h.hi; hi < 4950 {
		t.Fatalf("hi = %g, did not extend to cover samples", hi)
	}
	q := h.Quantile(0.99)
	if q <= 10 {
		t.Fatalf("p99 = %g, clamped at the initial range", q)
	}
	if math.Abs(q-4900) > 700 { // one doubled-bin width of slack
		t.Errorf("p99 = %g, want ~4900", q)
	}
}

func TestExtendingHistogramRespectsMax(t *testing.T) {
	h, err := NewExtendingHistogram(0, 10, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1e9)
	if hi := h.hi; hi != 40 {
		t.Errorf("hi = %g, want extension capped at 40", hi)
	}
	if over := h.over; over != 1 {
		t.Errorf("overflow = %d, want 1 once the cap is hit", over)
	}
}

func TestFixedHistogramNeverExtends(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1e9)
	if hi := h.hi; hi != 10 {
		t.Errorf("fixed histogram extended to hi=%g", hi)
	}
	if over := h.over; over != 1 {
		t.Errorf("overflow = %d, want 1", over)
	}
}

// TestHistogramResetReadsAsNew: a histogram that extended its range and
// counted under- and overflow reads, once Reset, exactly as a new one.
func TestHistogramResetReadsAsNew(t *testing.T) {
	h, err := NewExtendingHistogram(0, 100, 10, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 5, 150, 390, 1e6} {
		h.Add(x)
	}
	if h.hi == 100 || h.under == 0 || h.over == 0 {
		t.Fatalf("the set-up did not extend the range and fill both outer bins: %+v", h)
	}
	h.Reset()
	fresh, err := NewExtendingHistogram(0, 100, 10, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, fresh) {
		t.Fatalf("reset histogram %+v, new one %+v", h, fresh)
	}
	for _, x := range []float64{12, 95, 250} {
		h.Add(x)
		fresh.Add(x)
	}
	if !reflect.DeepEqual(h, fresh) || h.Quantile(0.5) != fresh.Quantile(0.5) {
		t.Fatalf("after the same samples: reset %+v, new %+v", h, fresh)
	}
}
