// Package queueing provides the single-server analytic model underlying
// the paper's delay anomaly. The non-monotonic delay of a rate-based DVFS
// policy was first shown for M/M/1-style systems by Bianco, Casu,
// Giaccone & Ricca, "Joint delay and power control in single-server
// queueing systems" (IEEE GreenCom 2013) — the paper's reference [12];
// Sec. III observes the same behaviour "was never observed before in the
// context of an NoC with DVFS".
//
// The model: packets arrive as a Poisson process with rate λ (packets per
// second); the server completes work at rate µ(F) = µ0·F packets per
// second, where F is the DVFS-controlled clock. The M/M/1 sojourn time is
//
//	W(λ, F) = 1 / (µ0·F − λ),   λ < µ0·F.
//
// The three policies map to frequency laws:
//
//	No-DVFS:  F = Fmax
//	RMSD:     F such that the utilization ρ = λ/(µ0·F) equals a fixed
//	          ρmax < 1 (serve just above the arrival rate), clipped to
//	          [Fmin, Fmax] — the queueing analogue of Eq. (2)
//	DMSD:     F such that W equals a target delay, clipped — the analogue
//	          of the PI loop's fixed point
//
// Under RMSD the delay is non-monotonic in λ: below the clipping point
// λmin = ρmax·µ0·Fmin the server is pinned at Fmin and W grows with λ;
// above it the utilization is constant and W = ρmax/(λ·(1−ρmax)) *falls*
// as 1/λ. The peak sits exactly at λmin — the shape of Fig. 2(b).
//
// Power combines the same components as package power: dynamic ∝ V²F and
// leakage ∝ V³, with voltages from the alpha-power model of package volt.
// The model is deliberately coarse — its role is to corroborate the
// simulator's *shapes*, not its numbers.
package queueing

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/volt"
)

// Model is the single-server DVFS plant.
type Model struct {
	// Mu0 is the service capacity per hertz: µ(F) = Mu0·F packets/s.
	Mu0 float64
	// FMin, FMax bound the actuator, in Hz.
	FMin, FMax float64
	// VF maps frequency to supply voltage.
	VF volt.Model

	// PDyn0 is the dynamic power at (FMax, VNom) and full utilization, in
	// watts; it scales with V²F and linearly with utilization.
	PDyn0 float64
	// PIdle0 is the utilization-independent dynamic power (clock tree) at
	// (FMax, VNom), in watts; it scales with V²F.
	PIdle0 float64
	// PLeak0 is the leakage at VNom, in watts; it scales with V³.
	PLeak0 float64
	// VNom is the voltage at FMax.
	VNom float64
}

// New returns a model matched to the paper's operating range with
// power weights qualitatively matching the 5x5 NoC calibration: at
// (1 GHz, 0.9 V) the fully loaded server burns ~180 mW of activity power,
// ~37 mW of clock power and ~12 mW of leakage.
func New() Model {
	return Model{
		Mu0:    1.0, // one packet per clock cycle at full speed
		FMin:   volt.FMin,
		FMax:   volt.FMax,
		VF:     volt.New(),
		PDyn0:  180e-3,
		PIdle0: 37e-3,
		PLeak0: 12e-3,
		VNom:   volt.VMax,
	}
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	var errs []error
	if m.Mu0 <= 0 {
		errs = append(errs, fmt.Errorf("Mu0 %g must be positive", m.Mu0))
	}
	if m.FMin <= 0 || m.FMin >= m.FMax {
		errs = append(errs, fmt.Errorf("bad frequency range [%g, %g]", m.FMin, m.FMax))
	}
	if m.VNom <= 0 {
		errs = append(errs, fmt.Errorf("VNom %g must be positive", m.VNom))
	}
	if m.PDyn0 < 0 || m.PIdle0 < 0 || m.PLeak0 < 0 {
		errs = append(errs, errors.New("negative power weight"))
	}
	return errors.Join(errs...)
}

// MaxArrivalRate returns the largest sustainable λ (packets/s): the
// service rate at FMax.
func (m Model) MaxArrivalRate() float64 { return m.Mu0 * m.FMax }

// Sojourn returns the M/M/1 mean sojourn time in seconds at arrival rate
// lambda and frequency f, or +Inf when the queue is unstable.
func (m Model) Sojourn(lambda, f float64) float64 {
	mu := float64(m.Mu0 * f)
	if lambda >= mu {
		return math.Inf(1)
	}
	return 1 / (mu - lambda)
}

// clip bounds f to the actuator range.
func (m Model) clip(f float64) float64 {
	return math.Min(m.FMax, math.Max(m.FMin, f))
}

// FreqNoDVFS returns FMax regardless of load.
func (m Model) FreqNoDVFS(float64) float64 { return m.FMax }

// FreqRMSD returns the rate-based frequency law: the frequency pinning
// the utilization at rhoMax, clipped — the analogue of Eq. (2).
func (m Model) FreqRMSD(lambda, rhoMax float64) float64 {
	if rhoMax <= 0 || rhoMax >= 1 {
		return m.FMax
	}
	return m.clip(lambda / (rhoMax * m.Mu0))
}

// FreqDMSD returns the delay-based frequency law: the minimum frequency
// whose sojourn time does not exceed targetS, clipped. Above the range the
// target is unreachable and the law returns FMax (the PI loop rails).
func (m Model) FreqDMSD(lambda, targetS float64) float64 {
	if targetS <= 0 {
		return m.FMax
	}
	// W = 1/(µ0 F − λ) = target  ⇒  F = (λ + 1/target)/µ0.
	return m.clip((lambda + 1/targetS) / m.Mu0)
}

// LambdaMin returns the arrival rate at which the RMSD law leaves the
// FMin clip: ρmax·µ0·FMin — the delay peak location.
func (m Model) LambdaMin(rhoMax float64) float64 {
	return float64(rhoMax * m.Mu0 * m.FMin)
}

// Power returns the model power in watts at arrival rate lambda and
// frequency f: utilization-scaled dynamic power plus clock and leakage.
func (m Model) Power(lambda, f float64) float64 {
	v := m.VF.VoltageFor(f)
	sv := v / m.VNom
	rho := math.Min(1, lambda/(m.Mu0*f))
	dyn := float64((float64(m.PDyn0*rho) + m.PIdle0) * sv * sv * (f / m.FMax))
	leak := float64(m.PLeak0 * sv * sv * sv)
	return dyn + leak
}

// PolicyPoint is one analytic operating point.
type PolicyPoint struct {
	Lambda float64 // packets per second
	Freq   float64 // Hz
	DelayS float64 // seconds (+Inf when unstable)
	PowerW float64
}

// Curve evaluates a frequency law over n arrival rates spanning
// (0, frac·MaxArrivalRate].
type FreqLaw func(lambda float64) float64

// Sweep evaluates the law across n points up to frac of the maximum
// arrival rate.
func (m Model) Sweep(law FreqLaw, frac float64, n int) []PolicyPoint {
	if n < 1 {
		return nil
	}
	out := make([]PolicyPoint, 0, n)
	max := frac * m.MaxArrivalRate()
	for i := 1; i <= n; i++ {
		lambda := max * float64(i) / float64(n)
		f := law(lambda)
		out = append(out, PolicyPoint{
			Lambda: lambda,
			Freq:   f,
			DelayS: m.Sojourn(lambda, f),
			PowerW: m.Power(lambda, f),
		})
	}
	return out
}

// RMSDPeakRatio returns the analytic ratio between the RMSD delay peak
// (at λmin) and the No-DVFS delay at the same arrival rate — the
// queueing-model counterpart of the "about 9x" annotation of Fig. 2(b).
func (m Model) RMSDPeakRatio(rhoMax float64) float64 {
	lmin := m.LambdaMin(rhoMax)
	wr := m.Sojourn(lmin, m.FreqRMSD(lmin, rhoMax))
	wn := m.Sojourn(lmin, m.FMax)
	return wr / wn
}
