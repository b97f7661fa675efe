package nocsim

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

// This file is the paper's recipe below the door, where a normalized,
// valid Scenario becomes engine runs: the saturation search (No-DVFS,
// full speed), the calibration (λmax = 0.9 × saturation; DMSD target =
// the full-speed delay at λmax) and one (policy, load) run on it. None of
// it is memoized; calibrate.go puts the memo on top.

// resolved is a normalized, valid scenario together with what its runs
// read beyond the scenario's own fields, resolved once: the engine's
// fabric configuration, the parsed faults, the app and the loaded trace.
// Everything else, islands and burst source included, is read from the
// Scenario itself, held by value: a pointer to the caller's copy would
// send it to the heap with the slices the engine keeps.
type resolved struct {
	Scenario
	cfg    noc.Config
	faults []noc.Link
	app    *apps.Table // set when Scenario.App is
	trace  *trace.Injection
}

// resolve prepares the runs of s, which must be normalized and valid.
func (s Scenario) resolve() (resolved, error) {
	cfg, err := s.Mesh.toNoc()
	if err != nil {
		return resolved{}, err
	}
	r := resolved{Scenario: s, cfg: cfg}
	if s.App != "" {
		if r.app, err = appByName(s.App); err != nil {
			return resolved{}, err
		}
	}
	if len(s.FaultyLinks) > 0 {
		if r.faults, err = parseFaults(s.FaultyLinks); err != nil {
			return resolved{}, err
		}
	}
	if s.TraceRef != "" {
		if r.trace, err = trace.LoadInjection(s.TraceRef); err != nil {
			return resolved{}, fmt.Errorf("nocsim: loading trace: %w", err)
		}
	}
	return r, nil
}

// injector builds the scenario's traffic source at the given load and
// RNG seed: an injection rate for synthetic patterns, a relative speed
// for apps.
func (r *resolved) injector(load float64, seed int64) (*traffic.Injector, error) {
	if r.trace != nil {
		return traffic.NewReplayInjector(r.cfg, r.trace)
	}
	var inj *traffic.Injector
	var err error
	if r.App != "" {
		inj, err = r.app.Injector(r.cfg, load, r.PeakRate, seed)
	} else {
		var p traffic.Pattern
		if p, err = traffic.ByName(r.Pattern, r.cfg); err == nil {
			inj, err = traffic.NewInjector(r.cfg, p, load, seed)
		}
	}
	if err != nil {
		return nil, err
	}
	if r.Source != nil {
		if err := inj.SetSource(*r.Source); err != nil {
			return nil, err
		}
	}
	if r.TraceCapture != nil {
		inj.StartCapture(&r.TraceCapture.inj)
	}
	return inj, nil
}

// offeredRate returns the mean per-node rate (flits per node per node
// cycle) the scenario's injector offers at the given load — what
// injector(load, ·).MeanRate() reports, summed in the same order, without
// seeding a generator per node to find out.
func (r *resolved) offeredRate(load float64) (float64, error) {
	var rates []float64
	var err error
	switch {
	case r.trace != nil:
		rates, err = traffic.ReplayRates(r.cfg, r.trace)
	case r.App != "":
		rates, err = r.app.Rates(r.cfg, load, r.PeakRate)
	default:
		rates = traffic.UniformRates(r.cfg, load)
	}
	if err != nil {
		return 0, err
	}
	return traffic.MeanRate(rates), nil
}

// simParams assembles sim.Params for one run seeded with seed.
func (r *resolved) simParams(load float64, pol dvfs.Policy, adaptive bool, seed int64) (sim.Params, error) {
	inj, err := r.injector(load, seed)
	if err != nil {
		return sim.Params{}, err
	}
	pm := power.Default28nm()
	p := sim.Params{
		Noc:            r.cfg,
		Injector:       inj,
		Policy:         pol,
		VF:             volt.New(),
		Power:          &pm,
		FNode:          r.FNodeHz,
		AdaptiveWarmup: adaptive,
		Faults:         r.faults,
		Islands:        r.Islands,
	}
	if r.PacketLog != nil {
		p.PacketLog = r.PacketLog.log
	}
	if r.Quick {
		// Quick mode shrinks windows 3-4x and shortens the control period
		// so closed-loop settling stays proportionate; steady-state
		// operating points are unaffected (the period only sets the
		// measurement cadence, Sec. IV).
		p.Warmup = 8000
		p.Measure = 20000
		p.MaxWarmup = 150000
		p.ControlPeriod = 2000
	}
	if r.ControlPeriod > 0 {
		p.ControlPeriod = r.ControlPeriod
	}
	if r.trace != nil {
		// Replay must measure the same node-cycle window the capture run
		// did: adaptive warmup would let a DMSD run idle past the end of
		// the recorded events and measure an empty network.
		p.AdaptiveWarmup = false
	}
	if r.Transient {
		// Transient capture: start measuring almost immediately and keep
		// the window long enough to hold the whole settling trajectory.
		p.AdaptiveWarmup = false
		p.Warmup = 1000
		p.Measure = 400000
		if r.Quick {
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

// equilibriumFreq estimates the DMSD steady-state network frequency at
// the given load: 10% above the RMSD law FNode·λ/λmax (the frequency
// that pins the network at λmax), since the DMSD setpoint sits just
// inside the stable region, clipped to the actuation range. Warm-starting
// the PI loop there removes the long cold-start descent from FMax
// without biasing the steady state, which is what makes every DMSD grid
// point an independent job instead of a link in a sequential warm-start
// chain. With an empty calibration (no λmax) it returns FMax — the cold
// start.
func (r *resolved) equilibriumFreq(load float64, cal Calibration) float64 {
	if cal.LambdaMax <= 0 {
		return r.FMaxHz
	}
	lambda := load
	if r.App != "" || r.trace != nil {
		// For apps the load is a relative speed (and for traces it is
		// ignored); the offered network rate is the injector's mean
		// per-node rate.
		if rate, err := r.offeredRate(load); err == nil {
			lambda = rate
		}
	}
	return dvfs.Clip(1.1*r.FNodeHz*lambda/cal.LambdaMax, r.FMinHz, r.FMaxHz)
}

// searchStats counts the probe simulations of one saturation search.
type searchStats struct {
	// probes is the number of probe simulations the search scheduled.
	probes int
	// cancelled counts the scheduled probes that were stopped in flight or
	// never started, because an earlier probe of the same round had
	// already decided the bracket.
	cancelled int
}

// search locates the saturation injection rate of the scenario's fabric
// under its traffic (No-DVFS, full speed) by bracketing on the engine's
// saturation guards, and counts the probes it scheduled and stopped
// early. The search starts from the theoretical channel-load capacity of
// the fabric, faults and islands included, and refines to ~2% relative
// precision with a fixed three-probe quarter-section per round, so each
// round's probes run concurrently on the exp engine while the probe
// layout — and hence the returned rate — stays identical for every worker
// count. When the capacity bound proves optimistic, the bracket-expansion
// rungs are also probed concurrently (after the first rung misses) with
// the same fixed layout. Cancelling ctx aborts the in-flight simulations
// promptly.
//
// The probes are built from r as it is: the search stage (searchStage in
// calibrate.go) hands it a scenario with the controller fields cleared.
func (r *resolved) search(ctx context.Context) (float64, searchStats, error) {
	if r.trace != nil {
		return 0, searchStats{}, errors.New("nocsim: saturation search needs load to vary; trace scenarios must carry a pinned calibration")
	}
	// maxLoad is the physical injection ceiling: one flit per cycle per
	// node for synthetic rates; for apps, the speed at which the busiest
	// node reaches one flit per cycle.
	maxLoad := 1.0
	if r.App != "" {
		maxLoad = 0.999 / r.PeakRate
	}
	hi := maxLoad
	if r.Pattern != "" {
		if p, err := traffic.ByName(r.Pattern, r.cfg); err == nil {
			c, err := noc.TheoreticalCapacity(r.cfg, r.faults, r.Islands, traffic.Matrix(p, r.cfg))
			if err == nil && c > 0 && c < 1 {
				hi = min(c*1.1, maxLoad)
			}
		}
	}
	saturatedAt := func(ctx context.Context, rate float64) (bool, error) {
		p, err := r.simParams(rate, dvfs.NewNoDVFS(r.FNodeHz), false, r.Seed)
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
	workers := r.Workers
	if r.observed() {
		// Concurrent probes would interleave the shared log's or trace
		// sink's records.
		workers = 1
	}
	return searchSaturation(ctx, workers, hi, maxLoad, saturatedAt)
}

// searchSaturation brackets the saturation load in (0, maxLoad] starting
// from the upper guess hi, asking probe whether the fabric saturates at a
// given load. It is the search minus the simulator, so the bracket logic
// can be tested against a stubbed predicate.
func searchSaturation(ctx context.Context, workers int, hi, maxLoad float64, probe func(ctx context.Context, load float64) (bool, error)) (float64, searchStats, error) {
	var st searchStats
	lo := 0.0
	// Ensure hi really saturates; expand if the capacity bound was
	// optimistic for this router configuration. The first rung is probed
	// alone — for capacity-derived brackets it almost always saturates and
	// the expansion ends there — and only when it misses are the remaining
	// rungs of the fixed ×1.3 ladder probed concurrently. The ladder
	// layout does not depend on probe outcomes, so the selected bracket —
	// and hence the returned rate — is identical to the sequential
	// expansion for every worker count.
	st.probes++
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
			lo + float64(0.25*(hi-lo)),
			lo + float64(0.50*(hi-lo)),
			lo + float64(0.75*(hi-lo)),
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
func probeRound(ctx context.Context, workers int, loads []float64, probe func(ctx context.Context, load float64) (bool, error), st *searchStats) (int, error) {
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
	st.probes += len(loads)
	st.cancelled += cancelled
	if err != nil {
		return 0, err
	}
	return first, nil
}

// calibrateAt is the second stage of the calibration: given the
// scenario's measured saturation rate, derive λmax and run the one
// reference simulation that fixes the DMSD target (the delay the network
// exhibits at λmax under full frequency, which is what RMSD delivers
// throughout its scaling range — Sec. IV sets the target to "the value
// of RMSD at injection rate λmax"). Unlike the search, the reference run
// keeps the scenario's own windows and control period.
func (r *resolved) calibrateAt(ctx context.Context, satLoad float64) (Calibration, error) {
	loadStar := 0.9 * satLoad
	// λmax is a *network rate* (flits per node per cycle): for synthetic
	// patterns it equals the load; for apps it is the mean per-node rate
	// the injector offers at the near-saturation speed.
	lmax, err := r.offeredRate(loadStar)
	if err != nil {
		return Calibration{}, err
	}
	p, err := r.simParams(loadStar, dvfs.NewNoDVFS(r.FNodeHz), false, r.Seed)
	if err != nil {
		return Calibration{}, err
	}
	res, err := runSim(ctx, p)
	if err != nil {
		return Calibration{}, err
	}
	target := res.AvgDelayNs
	if target <= 0 {
		return Calibration{}, fmt.Errorf("nocsim: calibration produced target %g ns", target)
	}
	return Calibration{SaturationRate: satLoad, LambdaMax: lmax, TargetDelayNs: target}, nil
}

// buildPolicy constructs the scenario's controller for its load on the
// calibration. The DMSD controller is warm-started at the equilibrium
// guess for the load (unless the scenario captures the transient), so
// each grid point emulates a continuously running controller without
// chaining to its neighbours.
func (r *resolved) buildPolicy(cal Calibration) (dvfs.Policy, error) {
	rng := dvfs.Range{FMin: r.FMinHz, FMax: r.FMaxHz}
	if r.FreqLevels > 0 {
		levels, err := volt.New().Quantize(rng.FMin, rng.FMax, r.FreqLevels)
		if err != nil {
			return nil, err
		}
		rng.Levels = &levels
	}
	switch r.Policy {
	case NoDVFS:
		return dvfs.NewNoDVFS(r.FNodeHz), nil
	case RMSD:
		return dvfs.NewRMSD(r.FNodeHz, cal.LambdaMax, rng)
	case DMSD:
		ki, kp := r.KI, r.KP
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
		if !r.Transient {
			pol.WarmStart(r.equilibriumFreq(r.Load, cal))
		}
		return pol, nil
	default:
		return nil, fmt.Errorf("nocsim: unknown policy %q", r.Policy)
	}
}

// runOne executes the scenario's (policy, load) point on its seed,
// reading RMSD's and DMSD's operating points from the attached
// calibration (none for No-DVFS). A DMSD run is warm-started at the
// load's equilibrium guess (unless Transient captures the cold start), so
// every point is an independent job and a grid point re-run standalone
// reproduces the grid's number.
func (r *resolved) runOne(ctx context.Context) (sim.Result, error) {
	var cal Calibration
	if r.Calibration != nil {
		cal = *r.Calibration
	}
	pol, err := r.buildPolicy(cal)
	if err != nil {
		return sim.Result{}, err
	}
	p, err := r.simParams(r.Load, pol, r.Policy == DMSD, r.Seed)
	if err != nil {
		return sim.Result{}, err
	}
	return runSim(ctx, p)
}
