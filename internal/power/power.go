// Package power estimates NoC power from cycle-accurate activity traces,
// substituting for the paper's post-synthesis flow (Synopsys Design
// Compiler netlist + simulated switching activity imported into the
// Synopsys power estimator on a 28-nm FDSOI low-power library, Sec. IV-A).
//
// The model is event-energy based:
//
//	P = Σ_events E_event·(V/Vnom)² / T            (switching activity)
//	  + N_routers·E_clk·(V/Vnom)²·F               (clock tree and idle pipeline)
//	  + N_routers·P_leak·(V/Vnom)³                (leakage)
//
// Dynamic energy scales with V² and, per unit time, with F; leakage grows
// super-linearly in V (cubic is a standard compact approximation across a
// 0.56-0.9 V window). Per-event energies are calibrated so the paper's
// baseline network (5x5 mesh, 8 VCs, 20-flit packets, 1 GHz @ 0.9 V)
// lands in the Fig. 6 envelope: ≈50 mW near zero load and ≈230 mW at 0.4
// flits/node/cycle. All of the paper's findings are power *ratios*
// (RMSD vs DMSD vs No-DVFS), which depend on the V²F scaling and the
// activity counts, not on the absolute calibration.
//
// A run is priced after it ends, from the constant-(f, V) segments the
// engine recorded while it stepped (Segment): WindowMW is the one place
// that turns them into a measurement window's average power.
package power

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/noc"
)

// Model holds per-event energies (joules at nominal voltage) and static
// parameters. Construct with Default28nm or fill fields explicitly.
type Model struct {
	// VNom is the nominal (maximum) supply voltage at which the event
	// energies are specified, in volts.
	VNom float64

	// Per-event energies in joules at VNom.
	EBufWrite float64 // one flit written into an input buffer
	EBufRead  float64 // one flit read from an input buffer
	EXbar     float64 // one flit crossing the switch
	EVCAlloc  float64 // one VC allocation grant
	ESAAlloc  float64 // one switch allocation grant
	ELink     float64 // one flit on a router-to-router link
	EIOLink   float64 // one flit on an injection or ejection link

	// EClkCycle is the clock-tree plus idle-pipeline energy per router per
	// cycle at VNom, in joules.
	EClkCycle float64

	// PLeakRouter is the per-router leakage power at VNom, in watts.
	PLeakRouter float64

	// LeakExp is the exponent of the (V/VNom)^LeakExp leakage scaling.
	LeakExp float64
}

// Default28nm returns the calibrated 28-nm FDSOI model (128-bit flits).
// Event energies are in the low-picojoule range typical for a 28-nm VC
// router; see the package comment for the calibration targets.
func Default28nm() Model {
	return Model{
		VNom:        0.90,
		EBufWrite:   1.1e-12,
		EBufRead:    0.7e-12,
		EXbar:       1.2e-12,
		EVCAlloc:    0.08e-12,
		ESAAlloc:    0.06e-12,
		ELink:       0.9e-12,
		EIOLink:     0.45e-12,
		EClkCycle:   1.5e-12,
		PLeakRouter: 0.5e-3,
		LeakExp:     3,
	}
}

// Validate reports whether the model parameters are physical.
func (m Model) Validate() error {
	var errs []error
	if m.VNom <= 0 {
		errs = append(errs, fmt.Errorf("nominal voltage %g must be positive", m.VNom))
	}
	for _, e := range []struct {
		name string
		v    float64
	}{
		{"EBufWrite", m.EBufWrite}, {"EBufRead", m.EBufRead}, {"EXbar", m.EXbar},
		{"EVCAlloc", m.EVCAlloc}, {"ESAAlloc", m.ESAAlloc}, {"ELink", m.ELink},
		{"EIOLink", m.EIOLink}, {"EClkCycle", m.EClkCycle}, {"PLeakRouter", m.PLeakRouter},
	} {
		if e.v < 0 {
			errs = append(errs, fmt.Errorf("%s %g must be non-negative", e.name, e.v))
		}
	}
	if m.LeakExp < 1 || m.LeakExp > 5 {
		errs = append(errs, fmt.Errorf("leakage exponent %g outside [1, 5]", m.LeakExp))
	}
	return errors.Join(errs...)
}

// vScale2 returns the dynamic-energy voltage scaling (V/VNom)².
func (m Model) vScale2(v float64) float64 {
	s := v / m.VNom
	return s * s
}

// ActivityEnergy returns the switching energy, in joules, of the event
// counts in a at supply voltage v. Injection and ejection flits traverse
// short PE links (EIOLink); router-to-router flits pay ELink.
func (m Model) ActivityEnergy(a noc.RouterActivity, v float64) float64 {
	// Each product is converted explicitly, so that no port fuses it into
	// the sum with one rounding where amd64 rounds twice.
	e := float64(float64(a.BufWrites)*m.EBufWrite) +
		float64(float64(a.BufReads)*m.EBufRead) +
		float64(float64(a.XbarTraversals)*m.EXbar) +
		float64(float64(a.VCAllocs)*m.EVCAlloc) +
		float64(float64(a.SAAllocs)*m.ESAAlloc) +
		float64(float64(a.LinkFlits)*m.ELink) +
		float64(float64(a.InjectFlits+a.EjectFlits)*m.EIOLink)
	return float64(e * m.vScale2(v))
}

// ClockEnergy returns the clock-tree energy, in joules, of routers running
// for cycles cycles at supply voltage v.
func (m Model) ClockEnergy(routers int, cycles int64, v float64) float64 {
	return float64(float64(routers) * float64(cycles) * m.EClkCycle * m.vScale2(v))
}

// LeakagePower returns the total leakage power, in watts, of routers at
// supply voltage v.
func (m Model) LeakagePower(routers int, v float64) float64 {
	s := v / m.VNom
	var scale float64
	// Multiplication fast path for the default cubic.
	if m.LeakExp == 3 {
		scale = s * s * s
	} else {
		scale = math.Pow(s, m.LeakExp)
	}
	return float64(float64(routers) * m.PLeakRouter * scale)
}

// A Segment is a stretch of a run at one network frequency and supply
// voltage: the router activity over it and its length in network cycles.
type Segment struct {
	Act    noc.RouterActivity
	Cycles int64
	V      float64 // volts
	F      float64 // network frequency, Hz
}

// WindowMW prices the segments of a run on a network of routers routers
// and returns the average power over segs[from:], in milliwatts: the total
// and its switching, clock and leakage parts. A window that holds no time
// (from == len(segs)) prices at 0 throughout.
//
// The sums run over the whole run, in segment order, and the prefix before
// from is subtracted, rather than summing the window's segments alone: that
// is the rounding every pinned result was computed with.
func (m Model) WindowMW(routers int, segs []Segment, from int) (total, switching, clock, leakage float64) {
	if from >= len(segs) {
		return 0, 0, 0, 0
	}
	var energyJ, timeS, switchJ, clockJ, leakJ float64
	var e0, t0, sw0, ck0, lk0 float64
	for i, s := range segs {
		if i == from {
			e0, t0, sw0, ck0, lk0 = energyJ, timeS, switchJ, clockJ, leakJ
		}
		seconds := float64(s.Cycles) / s.F
		sw := m.ActivityEnergy(s.Act, s.V)
		ck := m.ClockEnergy(routers, s.Cycles, s.V)
		lk := float64(m.LeakagePower(routers, s.V) * seconds)
		switchJ += sw
		clockJ += ck
		leakJ += lk
		energyJ += sw + ck + lk
		timeS += seconds
	}
	dt := timeS - t0
	if dt <= 0 {
		return 0, 0, 0, 0
	}
	return (energyJ - e0) / dt * 1e3, (switchJ - sw0) / dt * 1e3, (clockJ - ck0) / dt * 1e3, (leakJ - lk0) / dt * 1e3
}
