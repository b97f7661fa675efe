package dvfs

// PI is the discrete-time proportional-integral controller of Fig. 3:
//
//	U_n = U_{n-1} + KI·E_n + KP·(E_n − E_{n-1})
//
// (velocity form: the accumulated state U *is* the integral action, and the
// KP term adds the proportional correction as a difference). The output U
// is clamped to [UMin, UMax], with integral anti-windup: U does not
// accumulate past its bounds.
type PI struct {
	KI, KP     float64
	UMin, UMax float64

	u       float64
	prevErr float64
	started bool
}

// NewPI constructs a PI controller with the given gains, output bounds and
// initial output u0 (clamped into bounds).
func NewPI(ki, kp, uMin, uMax, u0 float64) *PI {
	p := &PI{KI: ki, KP: kp, UMin: uMin, UMax: uMax}
	p.u = Clip(u0, uMin, uMax)
	return p
}

// Update consumes one error sample E_n = measured − target and returns the
// new output U_n.
func (p *PI) Update(err float64) float64 {
	dErr := 0.0
	if p.started {
		dErr = err - p.prevErr
	}
	p.started = true
	p.prevErr = err
	p.u = Clip(p.u+float64(p.KI*err)+float64(p.KP*dErr), p.UMin, p.UMax)
	return p.u
}

// Reset restores the controller to output u0 with no error history.
func (p *PI) Reset(u0 float64) {
	p.u = Clip(u0, p.UMin, p.UMax)
	p.prevErr = 0
	p.started = false
}
