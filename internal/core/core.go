// Package core is the top of the library: it turns the substrates (noc,
// traffic, dvfs, volt, power, sim) into the paper's experiments. It
// provides saturation-rate search, the paper's auto-calibration recipe
// (λmax = 90% of saturation; DMSD target = the RMSD delay at λmax), and
// one (policy, load) run on the calibrated scenario — the point every
// figure of the evaluation is a grid of.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/volt"
)

// PolicyKind names one of the three compared controllers.
type PolicyKind string

// The three policies of the paper.
const (
	NoDVFS PolicyKind = "nodvfs"
	RMSD   PolicyKind = "rmsd"
	DMSD   PolicyKind = "dmsd"
)

// Scenario describes one experimental setting: fabric, traffic and the
// frequency plant. Exactly one of Pattern, App and Trace is set. core
// trusts its caller to pass a consistent scenario: nocsim.Validate is the
// one check, made before a scenario reaches this package.
type Scenario struct {
	// Noc is the fabric configuration.
	Noc noc.Config
	// Pattern is a synthetic pattern name ("uniform", "tornado",
	// "bitcomp", "transpose", "neighbor", ...).
	Pattern string
	// App selects a multimedia workload instead of a synthetic pattern.
	App *apps.App
	// PeakRate is the busiest-node rate at App speed 1 (defaults to
	// apps.DefaultPeakRate).
	PeakRate float64
	// Source layers a bursty generation process (MMPP or Pareto on-off)
	// under the synthetic pattern; the zero value is the plain Bernoulli
	// process. Sources combine with patterns only, not apps or traces.
	Source traffic.SourceConfig
	// Trace, when non-nil, replays a recorded injection trace instead of
	// generating traffic; Pattern and App must then be empty, and
	// policies that need a calibration must carry a pinned one (the
	// calibration search sweeps load, which a fixed trace ignores).
	Trace *trace.Injection
	// TraceCapture, when non-nil, records every generated packet into
	// the sink as injection-trace events. The sink is shared across the
	// scenario's runs, so searches and sweeps run serially and the sink
	// holds the events of the last run that used it.
	TraceCapture *trace.Injection

	// Faults lists directed mesh channels masked out of the fabric; the
	// network routes around them with a minimal fault-aware table.
	Faults []noc.Link
	// Islands are per-region V/F clock dividers layered under the global
	// DVFS frequency.
	Islands []noc.Island

	// FNode is the node clock in Hz (default 1 GHz).
	FNode float64
	// Range is the DVFS actuation range (default 333 MHz – 1 GHz).
	Range dvfs.Range
	// Seed is the root seed that makes runs reproducible. Runs and the
	// saturation search use it directly; a grid of runs gives each point
	// its own stream through exp.Seed.
	Seed int64

	// Quick shrinks warmup/measurement windows roughly 4x for smoke tests
	// and benchmarks.
	Quick bool

	// ControlPeriod overrides the DVFS control update period in node
	// cycles (0 = the engine default, or the shortened Quick period). It
	// wins over the Quick shortening, so a period ablation sweeps the
	// same values in quick and full mode.
	ControlPeriod int64
	// KI and KP override the DMSD PI gains (0 = the paper's published
	// values).
	KI, KP float64
	// FreqLevels quantizes the actuation range into this many discrete
	// frequency levels (0 = continuous actuation, the paper's default).
	FreqLevels int
	// Transient captures the controller's cold-start transient instead of
	// the steady state: no equilibrium warm start, a short fixed warmup,
	// a long measurement window, and a per-control-period frequency trace
	// in the result.
	Transient bool

	// Workers bounds how many probe simulations of a saturation search run
	// concurrently (0 = GOMAXPROCS, 1 = serial reference). Results are
	// byte-identical for every value: the probe layout is fixed.
	Workers int

	// PacketLog, when non-nil, records every measured packet's lifecycle
	// (see package trace). Searches reuse the same log across probes, so a
	// scenario with a log always runs serially.
	PacketLog *trace.Log
}

// workers returns the exp worker bound for this scenario: serial when a
// shared PacketLog is attached (concurrent runs would interleave its
// records), otherwise Workers.
func (s *Scenario) workers() int {
	if s.PacketLog != nil || s.TraceCapture != nil {
		return 1
	}
	return s.Workers
}

// Calibration fixes the policy operating points for a scenario, following
// Sec. III/IV: λmax 10% below the measured saturation rate, and the DMSD
// target equal to the RMSD delay at λmax.
type Calibration struct {
	// SaturationRate is the measured saturation injection rate in flits
	// per node per node cycle.
	SaturationRate float64
	// LambdaMax is the RMSD target network rate (0.9 × saturation).
	LambdaMax float64
	// TargetDelayNs is the DMSD setpoint.
	TargetDelayNs float64
}

func (s *Scenario) setDefaults() {
	if s.FNode == 0 {
		s.FNode = 1e9
	}
	if s.Range.FMax == 0 {
		s.Range = dvfs.DefaultRange()
	}
	if s.PeakRate == 0 {
		s.PeakRate = apps.DefaultPeakRate
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// injector builds the scenario's traffic source at the given load and
// RNG seed: an injection rate for synthetic patterns, a relative speed
// for apps.
func (s *Scenario) injector(load float64, seed int64) (*traffic.Injector, error) {
	if s.Trace != nil {
		return traffic.NewReplayInjector(s.Noc, s.Trace)
	}
	var inj *traffic.Injector
	var err error
	if s.App != nil {
		inj, err = s.App.Injector(s.Noc, load, s.PeakRate, seed)
	} else {
		var p traffic.Pattern
		if p, err = traffic.ByName(s.Pattern, s.Noc); err == nil {
			inj, err = traffic.NewInjector(s.Noc, p, load, seed)
		}
	}
	if err != nil {
		return nil, err
	}
	if s.Source.Kind != "" {
		if err := inj.SetSource(s.Source); err != nil {
			return nil, err
		}
	}
	if s.TraceCapture != nil {
		inj.StartCapture(s.TraceCapture)
	}
	return inj, nil
}

// offeredRate returns the mean per-node rate (flits per node per node
// cycle) the scenario's injector offers at the given load — what
// injector(load, ·).MeanRate() reports, summed in the same order, without
// seeding a generator per node to find out.
func (s *Scenario) offeredRate(load float64) (float64, error) {
	var rates []float64
	var err error
	switch {
	case s.Trace != nil:
		rates, err = traffic.ReplayRates(s.Noc, s.Trace)
	case s.App != nil:
		rates, err = s.App.Rates(s.Noc, load, s.PeakRate)
	default:
		rates = traffic.UniformRates(s.Noc, load)
	}
	if err != nil {
		return 0, err
	}
	return traffic.MeanRate(rates), nil
}

// simParams assembles sim.Params for one run seeded with seed.
func (s *Scenario) simParams(load float64, pol dvfs.Policy, adaptive bool, seed int64) (sim.Params, error) {
	inj, err := s.injector(load, seed)
	if err != nil {
		return sim.Params{}, err
	}
	pm := power.Default28nm()
	p := sim.Params{
		Noc:            s.Noc,
		Injector:       inj,
		Policy:         pol,
		VF:             volt.New(),
		Power:          &pm,
		FNode:          s.FNode,
		AdaptiveWarmup: adaptive,
		PacketLog:      s.PacketLog,
		Faults:         s.Faults,
		Islands:        s.Islands,
	}
	if s.Quick {
		// Quick mode shrinks windows 3-4x and shortens the control period
		// so closed-loop settling stays proportionate; steady-state
		// operating points are unaffected (the period only sets the
		// measurement cadence, Sec. IV).
		p.Warmup = 8000
		p.Measure = 20000
		p.MaxWarmup = 150000
		p.ControlPeriod = 2000
	}
	if s.ControlPeriod > 0 {
		p.ControlPeriod = s.ControlPeriod
	}
	if s.Trace != nil {
		// Replay must measure the same node-cycle window the capture run
		// did: adaptive warmup would let a DMSD run idle past the end of
		// the recorded events and measure an empty network.
		p.AdaptiveWarmup = false
	}
	if s.Transient {
		// Transient capture: start measuring almost immediately and keep
		// the window long enough to hold the whole settling trajectory.
		p.AdaptiveWarmup = false
		p.Warmup = 1000
		p.Measure = 400000
		if s.Quick {
			p.Measure = 100000
		}
		p.TraceFreq = true
	}
	return p, nil
}

// runSim executes one simulation under the process-wide leaf budget:
// the slot is held exactly for the duration of the engine run, so no
// matter how many worker pools are stacked above (figure panels fanning
// out policy grids fanning out probes), in-flight simulations never
// exceed exp.SetLeafBudget's cap. Every sim.RunContext call in this
// package goes through here.
//
// The run is offered the budget's spare slots (exp.SpareLeaves): a
// saturated run steps half its mesh on a second core while no other
// simulation wants one.
//
// The run consumes p.Injector: simParams built it for this one run and
// nothing else holds it, so once the engine returns — completed, aborted
// or cancelled, but not panicking — its generator slab goes back to the
// traffic package for the next point's injector.
func runSim(ctx context.Context, p sim.Params) (sim.Result, error) {
	release, err := exp.AcquireLeaf(ctx)
	if err != nil {
		return sim.Result{}, err
	}
	defer release()
	p.Spare = exp.SpareLeaves{}
	res, err := sim.RunContext(ctx, p)
	p.Injector.Release()
	return res, err
}

// EquilibriumFreq estimates the DMSD steady-state network frequency at
// the given load: 10% above the RMSD law FNode·λ/λmax (the frequency
// that pins the network at λmax), since the DMSD setpoint sits just
// inside the stable region, clipped to the actuation range. Warm-starting
// the PI loop there removes the long cold-start descent from FMax
// without biasing the steady state, which is what makes every DMSD grid
// point an independent job instead of a link in a sequential warm-start
// chain. With an empty calibration (no λmax) it returns FMax — the cold
// start.
func EquilibriumFreq(s Scenario, load float64, cal Calibration) float64 {
	s.setDefaults()
	if cal.LambdaMax <= 0 {
		return s.Range.FMax
	}
	lambda := load
	if s.App != nil || s.Trace != nil {
		// For apps the load is a relative speed (and for traces it is
		// ignored); the offered network rate is the injector's mean
		// per-node rate.
		if rate, err := s.offeredRate(load); err == nil {
			lambda = rate
		}
	}
	return dvfs.Clip(1.1*s.FNode*lambda/cal.LambdaMax, s.Range.FMin, s.Range.FMax)
}

// SearchStats counts the probe simulations of one saturation search.
type SearchStats struct {
	// Probes is the number of probe simulations the search scheduled.
	Probes int
	// Cancelled counts the scheduled probes that were stopped in flight or
	// never started, because an earlier probe of the same round had
	// already decided the bracket.
	Cancelled int
}

// FindSaturation locates the saturation injection rate of the scenario's
// fabric under its traffic (No-DVFS, full speed) by bracketing on the
// engine's saturation guards, and counts the probes it scheduled and
// stopped early. The search starts from the theoretical channel-load
// capacity of the fabric, faults and islands included, and refines to
// ~2% relative precision with a fixed three-probe quarter-section per
// round, so each round's probes run concurrently on the exp engine while
// the probe layout — and hence the returned rate — stays identical for
// every worker count. When the capacity bound proves optimistic, the
// bracket-expansion rungs are also probed concurrently (after the first
// rung misses) with the same fixed layout. Cancelling ctx aborts the
// in-flight simulations promptly.
//
// The search belongs to the fabric and its traffic, not to the
// controller: the probes are built with ControlPeriod and Transient
// cleared (they set their own windows, and a fixed-frequency policy never
// actuates), so scenarios that differ only in controller fields run the
// same search and return the same rate.
func FindSaturation(ctx context.Context, s Scenario) (float64, SearchStats, error) {
	s.setDefaults()
	if s.Trace != nil {
		return 0, SearchStats{}, errors.New("core: saturation search needs load to vary; trace scenarios must carry a pinned calibration")
	}
	s.ControlPeriod, s.Transient = 0, false
	// maxLoad is the physical injection ceiling: one flit per cycle per
	// node for synthetic rates; for apps, the speed at which the busiest
	// node reaches one flit per cycle.
	maxLoad := 1.0
	if s.App != nil {
		maxLoad = 0.999 / s.PeakRate
	}
	hi := maxLoad
	if s.Pattern != "" {
		if p, err := traffic.ByName(s.Pattern, s.Noc); err == nil {
			c, err := noc.TheoreticalCapacity(s.Noc, s.Faults, s.Islands, traffic.Matrix(p, s.Noc))
			if err == nil && c > 0 && c < 1 {
				hi = c * 1.1
				if hi > maxLoad {
					hi = maxLoad
				}
			}
		}
	}
	saturatedAt := func(ctx context.Context, rate float64) (bool, error) {
		pol := dvfs.NewNoDVFS(s.FNode)
		p, err := s.simParams(rate, pol, false, s.Seed)
		if err != nil {
			return false, err
		}
		p.Warmup = 8000
		p.Measure = 25000
		res, err := runSim(ctx, p)
		if err != nil {
			return false, err
		}
		// Beyond saturation the network accepts less than it is offered;
		// the throughput deficit reacts faster than the backlog and
		// latency guards near the knee.
		if res.OfferedRate > 0 && res.Throughput < 0.97*res.OfferedRate {
			return true, nil
		}
		return res.Saturated, nil
	}
	return searchSaturation(ctx, s.workers(), hi, maxLoad, saturatedAt)
}

// searchSaturation brackets the saturation load in (0, maxLoad] starting
// from the upper guess hi, asking probe whether the fabric saturates at a
// given load. It is FindSaturation minus the simulator, so the bracket
// logic can be tested against a stubbed predicate.
func searchSaturation(ctx context.Context, workers int, hi, maxLoad float64, probe func(ctx context.Context, load float64) (bool, error)) (float64, SearchStats, error) {
	var st SearchStats
	lo := 0.0
	// Ensure hi really saturates; expand if the capacity bound was
	// optimistic for this router configuration. The first rung is probed
	// alone — for capacity-derived brackets it almost always saturates and
	// the expansion ends there — and only when it misses are the remaining
	// rungs of the fixed ×1.3 ladder probed concurrently. The ladder
	// layout does not depend on probe outcomes, so the selected bracket —
	// and hence the returned rate — is identical to the sequential
	// expansion for every worker count.
	st.Probes++
	sat0, err := probe(ctx, hi)
	if err != nil {
		return 0, st, err
	}
	if !sat0 {
		lo = hi
		if hi >= maxLoad {
			return maxLoad, st, nil // injection-port-limited, never saturates
		}
		rungs := []float64{min(hi*1.3, maxLoad)}
		for len(rungs) < 3 && rungs[len(rungs)-1] < maxLoad {
			rungs = append(rungs, min(rungs[len(rungs)-1]*1.3, maxLoad))
		}
		first, err := probeRound(ctx, workers, rungs, probe, &st)
		if err != nil {
			return 0, st, err
		}
		if first > 0 {
			lo = rungs[first-1]
		}
		if first < len(rungs) {
			hi = rungs[first]
		} else {
			if top := rungs[len(rungs)-1]; top >= maxLoad {
				return maxLoad, st, nil // injection-port-limited, never saturates
			}
			// All probed rungs sustain the load: refine inside the next,
			// unprobed rung, exactly as the sequential expansion did.
			hi = min(lo*1.3, maxLoad)
		}
	}
	// Quarter-section refinement: three interior probes shrink the bracket
	// 4x per round (5 rounds ≈ 10 bisection steps), and the probes of one
	// round are independent runs fanned out across the worker pool. The
	// layout is fixed, which keeps the returned rate independent of the
	// worker count. The probes above a round's first saturated one are
	// never read, and probeRound stops them the moment that one reports:
	// the serial path simulates exactly the probes its decisions read, a
	// parallel one wastes at most the part of a probe already run.
	for round := 0; round < 5 && (hi-lo)/hi > 0.02; round++ {
		probes := []float64{
			lo + 0.25*(hi-lo),
			lo + 0.50*(hi-lo),
			lo + 0.75*(hi-lo),
		}
		first, err := probeRound(ctx, workers, probes, probe, &st)
		if err != nil {
			return 0, st, err
		}
		if first > 0 {
			lo = probes[first-1]
		}
		if first < len(probes) {
			hi = probes[first]
		}
	}
	// Return the highest load observed to be sustainable (lo), not the
	// bracket midpoint: a conservative saturation estimate keeps λmax and
	// the DMSD target inside the stable region, as the paper's 10% margin
	// intends.
	if lo == 0 {
		return (lo + hi) / 2, st, nil
	}
	return lo, st, nil
}

// probeRound probes the ascending loads concurrently and returns the
// index of the first one that saturates, len(loads) when none does. That
// index is all a round's decision reads — the loads below it become the
// new lower bound, it becomes the new upper bound — so the moment probe i
// reports saturated, every probe j > i is cancelled, in flight or still
// queued: its answer can no longer be consulted. A probe below the first
// saturated one is never cancelled, so the index returned is the one a
// sequential scan would find, for every worker count and whatever order
// the probes finish in (including a non-monotone predicate).
func probeRound(ctx context.Context, workers int, loads []float64, probe func(ctx context.Context, load float64) (bool, error), st *SearchStats) (int, error) {
	var mu sync.Mutex
	first := len(loads) // lowest index seen saturated so far
	cancels := make([]context.CancelFunc, len(loads))
	cancelled := 0
	_, err := exp.Map(ctx, workers, len(loads),
		func(ctx context.Context, i int) (struct{}, error) {
			mu.Lock()
			if first < i { // decided before this probe started
				cancelled++
				mu.Unlock()
				return struct{}{}, nil
			}
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()
			cancels[i] = cancel
			mu.Unlock()

			sat, err := probe(ctx, loads[i])

			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if first < i && errors.Is(err, context.Canceled) {
					// Stopped by a lower saturated probe, not by the
					// caller: not consulted, not a failure.
					cancelled++
					return struct{}{}, nil
				}
				return struct{}{}, err
			}
			if sat && i < first {
				first = i
				for _, c := range cancels[i+1:] {
					if c != nil {
						c()
					}
				}
			}
			return struct{}{}, nil
		})
	st.Probes += len(loads)
	st.Cancelled += cancelled
	if err != nil {
		return 0, err
	}
	return first, nil
}

// Calibrate runs the paper's calibration recipe for the scenario: measure
// the saturation rate, set λmax 10% below it, and set the DMSD target to
// the delay the network exhibits at λmax under full frequency (which is
// what RMSD delivers throughout its scaling range — Sec. IV sets the
// target to "the value of RMSD at injection rate λmax").
func Calibrate(ctx context.Context, s Scenario) (Calibration, error) {
	satLoad, _, err := FindSaturation(ctx, s)
	if err != nil {
		return Calibration{}, err
	}
	return CalibrateAt(ctx, s, satLoad)
}

// CalibrateAt is the second stage of Calibrate: given the scenario's
// measured saturation rate, derive λmax and run the one reference
// simulation that fixes the DMSD target. Unlike the search, the
// reference run keeps the scenario's own windows and control period.
func CalibrateAt(ctx context.Context, s Scenario, satLoad float64) (Calibration, error) {
	s.setDefaults()
	loadStar := 0.9 * satLoad
	// λmax is a *network rate* (flits per node per cycle): for synthetic
	// patterns it equals the load; for apps it is the mean per-node rate
	// the injector offers at the near-saturation speed.
	lmax, err := s.offeredRate(loadStar)
	if err != nil {
		return Calibration{}, err
	}
	pol := dvfs.NewNoDVFS(s.FNode)
	p, err := s.simParams(loadStar, pol, false, s.Seed)
	if err != nil {
		return Calibration{}, err
	}
	res, err := runSim(ctx, p)
	if err != nil {
		return Calibration{}, err
	}
	target := res.AvgDelayNs
	if target <= 0 {
		return Calibration{}, fmt.Errorf("core: calibration produced target %g ns", target)
	}
	return Calibration{SaturationRate: satLoad, LambdaMax: lmax, TargetDelayNs: target}, nil
}

// buildPolicy constructs one controller for the scenario and calibration
// at the given load. The DMSD controller is warm-started at the
// equilibrium guess for the load (unless the scenario captures the
// transient), so each grid point emulates a continuously running
// controller without chaining to its neighbours.
func buildPolicy(kind PolicyKind, s *Scenario, cal Calibration, load float64) (dvfs.Policy, error) {
	rng := s.Range
	if s.FreqLevels > 0 {
		levels, err := volt.New().Quantize(rng.FMin, rng.FMax, s.FreqLevels)
		if err != nil {
			return nil, err
		}
		rng.Levels = &levels
	}
	switch kind {
	case NoDVFS:
		return dvfs.NewNoDVFS(s.FNode), nil
	case RMSD:
		return dvfs.NewRMSD(s.FNode, cal.LambdaMax, rng)
	case DMSD:
		ki, kp := s.KI, s.KP
		if ki == 0 {
			ki = dvfs.DefaultKI
		}
		if kp == 0 {
			kp = dvfs.DefaultKP
		}
		pol, err := dvfs.NewDMSD(cal.TargetDelayNs, rng, ki, kp)
		if err != nil {
			return nil, err
		}
		if !s.Transient {
			pol.WarmStart(EquilibriumFreq(*s, load, cal))
		}
		return pol, nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q", kind)
	}
}

// RunOne executes a single (policy, load) point with automatic policy
// construction: the execution path of every nocsim grid point. The run
// uses the scenario's seed directly and observes ctx. A DMSD run is
// warm-started at the load's equilibrium guess (unless
// Scenario.Transient captures the cold start), so every point is an
// independent job and a grid point re-run standalone reproduces the
// grid's number. RMSD and DMSD read their operating points from cal,
// which the caller resolves (nocsim.Run through its calibration memo).
func RunOne(ctx context.Context, s Scenario, kind PolicyKind, load float64, cal Calibration) (sim.Result, error) {
	s.setDefaults()
	pol, err := buildPolicy(kind, &s, cal, load)
	if err != nil {
		return sim.Result{}, err
	}
	p, err := s.simParams(load, pol, kind == DMSD, s.Seed)
	if err != nil {
		return sim.Result{}, err
	}
	return runSim(ctx, p)
}

// LoadGrid returns n evenly spaced loads in (0, max], excluding zero.
func LoadGrid(max float64, n int) []float64 {
	if n < 1 {
		return nil
	}
	grid := make([]float64, n)
	for i := range grid {
		grid[i] = max * float64(i+1) / float64(n)
	}
	return grid
}
