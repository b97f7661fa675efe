package dvfs

import (
	"math"
	"testing"
)

func TestPIRecurrenceMatchesPaperFormula(t *testing.T) {
	// U_n = U_{n-1} + KI*E_n + KP*(E_n - E_{n-1}) with wide bounds.
	pi := NewPI(0.025, 0.0125, -100, 100, 0)
	errs := []float64{1, 0.5, -0.25, 2, 0}
	u, prev := 0.0, 0.0
	for i, e := range errs {
		d := e - prev
		if i == 0 {
			d = 0 // no error history on the first sample
		}
		u += 0.025*e + 0.0125*d
		prev = e
		if got := pi.Update(e); math.Abs(got-u) > 1e-12 {
			t.Fatalf("step %d: U = %g, want %g", i, got, u)
		}
	}
}

func TestPIClampsOutput(t *testing.T) {
	pi := NewPI(1, 0, 0, 1, 0.5)
	if got := pi.Update(10); got != 1 {
		t.Errorf("U = %g, want clamp at 1", got)
	}
	if got := pi.Update(-10); got < 0 || got > 1 {
		t.Errorf("U = %g escaped bounds", got)
	}
}

func TestPIAntiWindup(t *testing.T) {
	// Saturate high for many steps, then reverse: with anti-windup the
	// output must leave the upper bound on the very next negative step of
	// sufficient size, instead of staying stuck while a wound-up integral
	// unwinds.
	pi := NewPI(0.5, 0, 0, 1, 0)
	for i := 0; i < 100; i++ {
		pi.Update(10)
	}
	got := pi.Update(-1)
	if got >= 1 {
		t.Errorf("anti-windup failed: U = %g after negative error", got)
	}
	if want := 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("U = %g, want %g (1 + 0.5*(-1))", got, want)
	}
}

func TestPIConvergesOnFirstOrderPlant(t *testing.T) {
	// Plant: delay(u) decreases linearly in u (higher frequency, lower
	// delay). The loop must settle with the measured value at the target.
	pi := NewPI(0.05, 0.025, 0, 1, 1)
	target := 150.0
	plant := func(u float64) float64 { return 400 - 300*u } // delay in "ns"
	u := pi.u
	for i := 0; i < 2000; i++ {
		meas := plant(u)
		e := (meas - target) / target
		u = pi.Update(e)
	}
	if got := plant(u); math.Abs(got-target) > 1.0 {
		t.Errorf("loop settled at %g, want %g", got, target)
	}
}

func TestPIStableWithPaperGains(t *testing.T) {
	// With the published gains the loop must not oscillate divergently on
	// a monotone plant: the error amplitude must shrink over time.
	pi := NewPI(DefaultKI, DefaultKP, 0, 1, 1)
	target := 150.0
	plant := func(u float64) float64 { return 50 + 400*math.Exp(-3*u) }
	u := pi.u
	var early, late float64
	for i := 0; i < 3000; i++ {
		meas := plant(u)
		e := (meas - target) / target
		if i < 100 {
			early += math.Abs(e)
		}
		if i >= 2900 {
			late += math.Abs(e)
		}
		u = pi.Update(e)
	}
	if late/100 > early/100*0.1 {
		t.Errorf("loop not converging: early mean |e| %.4f, late %.4f", early/100, late/100)
	}
}

func TestPIReset(t *testing.T) {
	pi := NewPI(0.1, 0.1, 0, 1, 0.3)
	pi.Update(5)
	pi.Reset(0.7)
	if pi.u != 0.7 {
		t.Errorf("Reset output = %g, want 0.7", pi.u)
	}
	// After reset the derivative term must not see the stale error.
	got := pi.Update(1)
	want := Clip(0.7+0.1*1, 0, 1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("post-reset update = %g, want %g", got, want)
	}
}

func TestPIInitialOutputClamped(t *testing.T) {
	pi := NewPI(0.1, 0.1, 0, 1, 5)
	if pi.u != 1 {
		t.Errorf("initial output = %g, want clamped to 1", pi.u)
	}
}
