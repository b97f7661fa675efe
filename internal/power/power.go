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
	e := float64(a.BufWrites)*m.EBufWrite +
		float64(a.BufReads)*m.EBufRead +
		float64(a.XbarTraversals)*m.EXbar +
		float64(a.VCAllocs)*m.EVCAlloc +
		float64(a.SAAllocs)*m.ESAAlloc +
		float64(a.LinkFlits)*m.ELink +
		float64(a.InjectFlits+a.EjectFlits)*m.EIOLink
	return e * m.vScale2(v)
}

// ClockEnergy returns the clock-tree energy, in joules, of routers running
// for cycles cycles at supply voltage v.
func (m Model) ClockEnergy(routers int, cycles int64, v float64) float64 {
	return float64(routers) * float64(cycles) * m.EClkCycle * m.vScale2(v)
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
	return float64(routers) * m.PLeakRouter * scale
}

// Integrator accumulates energy over a simulation with time-varying
// voltage and frequency. Call Slice once per accounting interval (e.g.
// per DVFS control period) with the activity delta of that interval.
type Integrator struct {
	model   Model
	routers int

	energyJ float64
	timeS   float64

	// Per-component energy, for breakdown reporting.
	switchJ float64
	clockJ  float64
	leakJ   float64
}

// NewIntegrator builds an integrator for a network with the given number
// of routers.
func NewIntegrator(model Model, routers int) (*Integrator, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if routers < 1 {
		return nil, fmt.Errorf("power: %d routers", routers)
	}
	return &Integrator{model: model, routers: routers}, nil
}

// Slice accounts one interval of the simulation: activity delta a, elapsed
// network cycles, supply voltage v, and elapsed wall time seconds (cycles
// divided by the interval's network frequency).
func (i *Integrator) Slice(a noc.RouterActivity, cycles int64, v, seconds float64) {
	sw := i.model.ActivityEnergy(a, v)
	ck := i.model.ClockEnergy(i.routers, cycles, v)
	lk := i.model.LeakagePower(i.routers, v) * seconds
	i.switchJ += sw
	i.clockJ += ck
	i.leakJ += lk
	i.energyJ += sw + ck + lk
	i.timeS += seconds
}

// Components returns the cumulative per-component energies in joules:
// switching, clock, leakage. Callers snapshot them to compute windowed
// breakdowns.
func (i *Integrator) Components() (switchJ, clockJ, leakJ float64) {
	return i.switchJ, i.clockJ, i.leakJ
}

// EnergyJ returns the total accumulated energy in joules.
func (i *Integrator) EnergyJ() float64 { return i.energyJ }

// TimeS returns the total accounted time in seconds.
func (i *Integrator) TimeS() float64 { return i.timeS }
