package dvfs

import (
	"math"
	"testing"
)

func newTestDMSD(t *testing.T) *DMSD {
	t.Helper()
	p, err := NewDMSD(150, DefaultRange(), DefaultKI, DefaultKP)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDMSDBasics(t *testing.T) {
	p := newTestDMSD(t)
	if p.TargetNs() != 150 {
		t.Errorf("TargetNs = %g", p.TargetNs())
	}
	if p.Freq() != 1e9 {
		t.Errorf("initial Freq = %g, want FMax", p.Freq())
	}
}

func TestDMSDValidation(t *testing.T) {
	if _, err := NewDMSD(0, DefaultRange(), DefaultKI, DefaultKP); err == nil {
		t.Error("accepted zero target")
	}
	if _, err := NewDMSD(-10, DefaultRange(), DefaultKI, DefaultKP); err == nil {
		t.Error("accepted negative target")
	}
	if _, err := NewDMSD(150, DefaultRange(), 0, 0.01); err == nil {
		t.Error("accepted zero KI")
	}
	if _, err := NewDMSD(150, DefaultRange(), 0.025, -1); err == nil {
		t.Error("accepted negative KP")
	}
	if _, err := NewDMSD(150, Range{FMin: 5, FMax: 1}, DefaultKI, DefaultKP); err == nil {
		t.Error("accepted bad range")
	}
}

func TestDMSDSlowsDownWhenDelayBelowTarget(t *testing.T) {
	p := newTestDMSD(t)
	m := Measurement{AvgDelayNs: 40, DelaySamples: 100}
	f1 := p.Next(m)
	f2 := p.Next(m)
	if !(f2 <= f1 && f1 <= 1e9) {
		t.Errorf("frequency not decreasing: %g, %g", f1, f2)
	}
	for i := 0; i < 5000; i++ {
		p.Next(m)
	}
	// A delay permanently far below target must drive F to the floor.
	if p.Freq() != 333e6 {
		t.Errorf("frequency settled at %g, want FMin", p.Freq())
	}
}

func TestDMSDSpeedsUpWhenDelayAboveTarget(t *testing.T) {
	p := newTestDMSD(t)
	// First push it down...
	for i := 0; i < 5000; i++ {
		p.Next(Measurement{AvgDelayNs: 10, DelaySamples: 10})
	}
	low := p.Freq()
	// ...then present a delay violation.
	f := p.Next(Measurement{AvgDelayNs: 600, DelaySamples: 10})
	if f <= low {
		t.Errorf("frequency did not rise on delay violation: %g -> %g", low, f)
	}
	for i := 0; i < 5000; i++ {
		p.Next(Measurement{AvgDelayNs: 600, DelaySamples: 10})
	}
	if p.Freq() != 1e9 {
		t.Errorf("persistent violation settled at %g, want FMax", p.Freq())
	}
}

func TestDMSDTracksTargetOnPlant(t *testing.T) {
	// Synthetic plant with delay falling in frequency, mimicking an
	// unsaturated NoC: delay(F) = L0 / (F in GHz) with L0 chosen so the
	// target is reachable inside the range.
	p := newTestDMSD(t)
	plant := func(f float64) float64 { return 80 / (f / 1e9) } // 80 ns at 1 GHz
	f := p.Freq()
	for i := 0; i < 4000; i++ {
		f = p.Next(Measurement{AvgDelayNs: plant(f), DelaySamples: 50})
	}
	got := plant(f)
	if math.Abs(got-150) > 3 {
		t.Errorf("loop settled at delay %.1f ns, want 150 ± 3", got)
	}
}

func TestDMSDCoastsDownWithNoTraffic(t *testing.T) {
	p := newTestDMSD(t)
	for i := 0; i < 5000; i++ {
		p.Next(Measurement{DelaySamples: 0})
	}
	if p.Freq() != 333e6 {
		t.Errorf("idle network frequency %g, want FMin", p.Freq())
	}
}

func TestDMSDReset(t *testing.T) {
	p := newTestDMSD(t)
	for i := 0; i < 100; i++ {
		p.Next(Measurement{AvgDelayNs: 10, DelaySamples: 10})
	}
	p.Reset()
	if p.Freq() != 1e9 {
		t.Errorf("Reset Freq = %g, want FMax", p.Freq())
	}
}

func TestDMSDFrequencyAlwaysInRange(t *testing.T) {
	p := newTestDMSD(t)
	delays := []float64{0, 1, 150, 1e6, 75, 3000, 150, 150, 0.1}
	for i := 0; i < 2000; i++ {
		d := delays[i%len(delays)]
		f := p.Next(Measurement{AvgDelayNs: d, DelaySamples: 7})
		if f < 333e6-1 || f > 1e9+1 {
			t.Fatalf("frequency %g escaped range", f)
		}
	}
}

func TestDMSDGainAblation(t *testing.T) {
	// Higher KI converges faster on a step; verify ordering of settling
	// behaviour rather than absolute values.
	settle := func(ki float64) int {
		p, err := NewDMSD(150, DefaultRange(), ki, ki/2)
		if err != nil {
			t.Fatal(err)
		}
		plant := func(f float64) float64 { return 80 / (f / 1e9) }
		f := p.Freq()
		for i := 0; i < 8000; i++ {
			f = p.Next(Measurement{AvgDelayNs: plant(f), DelaySamples: 10})
			if math.Abs(plant(f)-150) < 2 {
				return i
			}
		}
		return 8000
	}
	fast := settle(0.1)
	slow := settle(0.005)
	if fast >= slow {
		t.Errorf("KI=0.1 settled in %d periods, KI=0.005 in %d: expected faster convergence with higher gain", fast, slow)
	}
}
