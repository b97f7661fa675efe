package dvfs

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/volt"
)

// DefaultRange returns the paper's range: 333 MHz to 1 GHz, continuous.
func DefaultRange() Range { return Range{FMin: volt.FMin, FMax: volt.FMax} }

func TestClip(t *testing.T) {
	tests := []struct{ f, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
	}
	for _, tc := range tests {
		if got := Clip(tc.f, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clip(%g,%g,%g) = %g, want %g", tc.f, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestDefaultRangeMatchesPaper(t *testing.T) {
	r := DefaultRange()
	if r.FMin != 333e6 || r.FMax != 1e9 {
		t.Errorf("range = [%g, %g], want [333 MHz, 1 GHz]", r.FMin, r.FMax)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("default range invalid: %v", err)
	}
}

func TestRangeValidate(t *testing.T) {
	bad := []Range{
		{FMin: 0, FMax: 1e9},
		{FMin: -1, FMax: 1e9},
		{FMin: 1e9, FMax: 1e9},
		{FMin: 2e9, FMax: 1e9},
		{FMin: 1e8, FMax: 1e9, Levels: &volt.Levels{Freqs: []float64{1e9}}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid range accepted", i)
		}
	}
}

func TestMeasurementNodeRate(t *testing.T) {
	m := Measurement{NodeCycles: 10000, OfferedFlits: 50000, Nodes: 25}
	if got, want := m.NodeRate(), 0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("NodeRate = %g, want %g", got, want)
	}
	if got := (Measurement{}).NodeRate(); got != 0 {
		t.Errorf("empty NodeRate = %g", got)
	}
}

func TestNoDVFSConstant(t *testing.T) {
	p := NewNoDVFS(1e9)
	if p.Name() != "nodvfs" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Freq() != 1e9 {
		t.Errorf("Freq = %g", p.Freq())
	}
	for _, m := range []Measurement{{}, {NodeCycles: 1e4, OfferedFlits: 1e6, Nodes: 25, AvgDelayNs: 1e4, DelaySamples: 5}} {
		if got := p.Next(m); got != 1e9 {
			t.Errorf("Next = %g, want 1 GHz always", got)
		}
	}
	p.Reset()
	if p.Freq() != 1e9 {
		t.Error("Reset changed NoDVFS frequency")
	}
}

func newTestRMSD(t *testing.T) *RMSD {
	t.Helper()
	p, err := NewRMSD(1e9, 0.378, DefaultRange())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// freqAt feeds the controller one window whose node rate is lambdaNode
// (to a millionth) and returns the frequency Eq. (2) commands for it.
func freqAt(p *RMSD, lambdaNode float64) float64 {
	return p.Next(Measurement{NodeCycles: 1e6, Nodes: 1, OfferedFlits: int64(math.Round(lambdaNode * 1e6))})
}

func TestRMSDFrequencyLaw(t *testing.T) {
	// Eq. (2): Fnoc = Fnode * lambdaNode / lambdaMax within range.
	p := newTestRMSD(t)
	m := Measurement{NodeCycles: 10000, Nodes: 25}

	m.OfferedFlits = int64(0.2 * 10000 * 25) // λnode = 0.2
	want := 1e9 * 0.2 / 0.378
	if got := p.Next(m); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("F(0.2) = %g, want %g", got, want)
	}
}

func TestRMSDClipping(t *testing.T) {
	p := newTestRMSD(t)
	// Above λmax: clip to FMax.
	m := Measurement{NodeCycles: 1000, Nodes: 25, OfferedFlits: int64(0.5 * 1000 * 25)}
	if got := p.Next(m); got != 1e9 {
		t.Errorf("F above λmax = %g, want FMax", got)
	}
	// Near zero rate: clip to FMin.
	m.OfferedFlits = 1
	if got := p.Next(m); got != 333e6 {
		t.Errorf("F near zero rate = %g, want FMin", got)
	}
}

func TestRMSDLambdaMin(t *testing.T) {
	// Below λmin = λmax·FMin/Fnode (Sec. III) the frequency clips at FMin:
	// at exactly λmin the law lands on FMin, at λmax on FMax.
	p := newTestRMSD(t)
	lambdaMin := 0.378 * 333e6 / 1e9
	if got := freqAt(p, lambdaMin); math.Abs(got-333e6) > 1 {
		t.Errorf("F(λmin) = %g, want FMin", got)
	}
	if got := freqAt(p, 0.9*lambdaMin); got != 333e6 {
		t.Errorf("F(0.9 λmin) = %g, want FMin", got)
	}
	if got := freqAt(p, 0.378); math.Abs(got-1e9) > 1 {
		t.Errorf("F(λmax) = %g, want FMax", got)
	}
}

func TestRMSDFreqMonotoneInRateQuick(t *testing.T) {
	p := newTestRMSD(t)
	f := func(a, b uint16) bool {
		r1 := float64(a) / 65535 * 0.5
		r2 := float64(b) / 65535 * 0.5
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		return freqAt(p, r1) <= freqAt(p, r2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRMSDValidation(t *testing.T) {
	if _, err := NewRMSD(0, 0.4, DefaultRange()); err == nil {
		t.Error("accepted zero node frequency")
	}
	if _, err := NewRMSD(1e9, 0, DefaultRange()); err == nil {
		t.Error("accepted zero lambdaMax")
	}
	if _, err := NewRMSD(1e9, 1.5, DefaultRange()); err == nil {
		t.Error("accepted lambdaMax > 1")
	}
	if _, err := NewRMSD(1e9, 0.4, Range{FMin: 1, FMax: 1}); err == nil {
		t.Error("accepted degenerate range")
	}
}

func TestRMSDResetAndInitialFreq(t *testing.T) {
	p := newTestRMSD(t)
	if p.Freq() != 1e9 {
		t.Errorf("initial Freq = %g, want FMax", p.Freq())
	}
	p.Next(Measurement{NodeCycles: 1000, Nodes: 25, OfferedFlits: 100})
	if p.Freq() == 1e9 {
		t.Fatal("Next did not move the frequency")
	}
	p.Reset()
	if p.Freq() != 1e9 {
		t.Error("Reset did not restore FMax")
	}
}

func TestRMSDDiscreteLevels(t *testing.T) {
	vm := volt.New()
	levels, err := vm.Quantize(333e6, 1e9, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := DefaultRange()
	rng.Levels = &levels
	p, err := NewRMSD(1e9, 0.378, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := Measurement{NodeCycles: 1000, Nodes: 25, OfferedFlits: int64(0.2 * 1000 * 25)}
	got := p.Next(m)
	// Continuous law gives 529 MHz; the 4-level table snaps up to 555.3 MHz.
	if math.Abs(got-levels.Freqs[1]) > 1 {
		t.Errorf("discrete F = %g, want level %g", got, levels.Freqs[1])
	}
	if got < 1e9*0.2/0.378 {
		t.Error("discrete actuation went below the continuous law")
	}
}
