package dvfs

import "fmt"

// RMSD is the Rate-based Max Slow Down policy (Sec. III, Fig. 1). The
// controller node receives the average injection rate measured by the
// transmitting nodes and applies the open-loop frequency law of Eq. (2):
//
//	Fnoc = Fnode · λnode / λmax
//
// clipped to [FMin, FMax]. λmax is the target network injection rate, set
// a safety margin below the saturation rate (10% in the paper), so the
// network always operates just below saturation at the minimum frequency
// able to sustain the offered load.
type RMSD struct {
	fnode float64
	lmax  float64
	rng   Range
	f     float64
}

// NewRMSD builds the policy. fnode is the node clock (Hz), lambdaMax the
// target network injection rate in flits per node per network cycle, and
// rng the actuator range. The initial frequency is FMax (the network boots
// at full speed, as a DVFS controller would before its first measurement).
func NewRMSD(fnode, lambdaMax float64, rng Range) (*RMSD, error) {
	if err := rng.Validate(); err != nil {
		return nil, err
	}
	if fnode <= 0 {
		return nil, fmt.Errorf("dvfs: node frequency %g must be positive", fnode)
	}
	if lambdaMax <= 0 || lambdaMax > 1 {
		return nil, fmt.Errorf("dvfs: lambdaMax %g outside (0, 1]", lambdaMax)
	}
	return &RMSD{fnode: fnode, lmax: lambdaMax, rng: rng, f: rng.FMax}, nil
}

// Name implements Policy.
func (*RMSD) Name() string { return "rmsd" }

// Next implements Policy: the frequency-scaling law of Eq. (2).
func (p *RMSD) Next(m Measurement) float64 {
	p.f = p.rng.apply(p.fnode * m.NodeRate() / p.lmax)
	return p.f
}

// Freq implements Policy.
func (p *RMSD) Freq() float64 { return p.f }

// Reset implements Policy.
func (p *RMSD) Reset() { p.f = p.rng.FMax }
