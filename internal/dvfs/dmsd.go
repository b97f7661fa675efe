package dvfs

import "fmt"

// DMSD is the Delay-based Max Slow Down policy (Sec. IV, Fig. 3). The
// receiving nodes measure end-to-end packet delays from header timestamps;
// the controller node averages them each control period, subtracts the
// target delay, and feeds the error to a PI controller whose output maps
// linearly onto the frequency range:
//
//	E_n = (avgDelay − targetDelay) / targetDelay
//	U_n = U_{n−1} + KI·E_n + KP·(E_n − E_{n−1}),  U ∈ [0, 1]
//	Fnoc = FMin + U·(FMax − FMin)
//
// A positive error (delay above target) raises U and hence the frequency.
// The error is normalized by the target so the published gains (KI=0.025,
// KP=0.0125) are dimensionless and independent of the target's magnitude.
type DMSD struct {
	targetNs float64
	rng      Range
	pi       *PI
	f        float64
	u0       float64
}

// Paper-published PI gains (Sec. IV).
const (
	DefaultKI = 0.025
	DefaultKP = 0.0125
)

// ControlPeriodNodeCycles is the paper's control update period: 10 000
// clock cycles at the highest frequency (i.e. node clock cycles).
const ControlPeriodNodeCycles = 10000

// NewDMSD builds the policy. targetNs is the delay setpoint in
// nanoseconds; ki and kp are the PI gains (DefaultKI and DefaultKP are the
// paper's). The controller starts at FMax (U=1): the network boots at full
// speed and the loop slows it down until the delay rises to the target.
func NewDMSD(targetNs float64, rng Range, ki, kp float64) (*DMSD, error) {
	if err := rng.Validate(); err != nil {
		return nil, err
	}
	if targetNs <= 0 {
		return nil, fmt.Errorf("dvfs: target delay %g ns must be positive", targetNs)
	}
	if ki <= 0 {
		return nil, fmt.Errorf("dvfs: KI %g must be positive", ki)
	}
	if kp < 0 {
		return nil, fmt.Errorf("dvfs: KP %g must be non-negative", kp)
	}
	d := &DMSD{
		targetNs: targetNs,
		rng:      rng,
		pi:       NewPI(ki, kp, 0, 1, 1),
		f:        rng.FMax,
		u0:       1,
	}
	return d, nil
}

// WarmStart sets the controller's initial (and Reset) operating point to
// frequency f, clipped into range. A sweep harness that chains operating
// points warm-starts each run from the previous settled frequency — the
// behaviour of a continuously running on-chip controller — which removes
// the long FMax-to-setpoint transient the published gains would otherwise
// have to traverse at every point.
func (p *DMSD) WarmStart(f float64) {
	f = Clip(f, p.rng.FMin, p.rng.FMax)
	p.u0 = (f - p.rng.FMin) / (p.rng.FMax - p.rng.FMin)
	p.Reset()
}

// TargetNs returns the delay setpoint in nanoseconds.
func (p *DMSD) TargetNs() float64 { return p.targetNs }

// Next implements Policy.
func (p *DMSD) Next(m Measurement) float64 {
	// When no packets arrived in the window, nothing is in flight and the
	// delay constraint is trivially met: coast down gently by feeding the
	// most optimistic error (delay 0).
	err := -1.0
	if m.DelaySamples > 0 {
		err = (m.AvgDelayNs - p.targetNs) / p.targetNs
	}
	u := p.pi.Update(err)
	p.f = p.rng.apply(p.rng.FMin + float64(u*(p.rng.FMax-p.rng.FMin)))
	return p.f
}

// Freq implements Policy.
func (p *DMSD) Freq() float64 { return p.f }

// Reset implements Policy: the controller returns to its initial operating
// point (FMax unless WarmStart moved it).
func (p *DMSD) Reset() {
	p.pi.Reset(p.u0)
	p.f = p.rng.apply(p.rng.FMin + float64(p.u0*(p.rng.FMax-p.rng.FMin)))
}
