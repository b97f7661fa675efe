package nocsim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Run executes one simulation and returns its measured Result. The
// context is observed all the way inside the engine loop: cancelling ctx
// aborts an in-flight simulation promptly and returns ctx.Err(), and a
// context that is already cancelled returns before any work starts.
//
// When the scenario's policy needs a calibration and none is attached,
// Run calibrates first (a saturation search plus one reference run) and
// records the resolved calibration in the returned Result's Scenario, so
// repeating or distributing the run skips the search.
func Run(ctx context.Context, s Scenario) (Result, error) {
	s = s.normalized()
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	return run(ctx, s)
}

// run is Run on a normalized, valid scenario.
func run(ctx context.Context, s Scenario) (Result, error) {
	start := time.Now()
	if s.Calibration == nil && s.Policy != NoDVFS {
		cal, err := calibrate(ctx, s)
		if err != nil {
			return Result{}, err
		}
		s.Calibration = &cal
	}
	r, err := s.resolve()
	if err != nil {
		return Result{}, err
	}
	res, err := r.runOne(ctx)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Scenario: s,
		Metrics:  res.Metrics,
		Trace:    res.Trace,
		Meta:     RunMeta{Seed: s.Seed, Workers: s.Workers, WallTime: time.Since(start)},
	}, nil
}

// FabricUse counts how the process's simulations came by their two large
// per-run objects, the network and the injector's generator slab (see the
// package doc's "Set-up" section).
type FabricUse struct {
	// FabricsBuilt and FabricsReused split the runs by whether their
	// network was constructed or was an earlier run's, reset;
	// FabricsEvicted counts networks the free list dropped to stay inside
	// its bounds.
	FabricsBuilt, FabricsReused, FabricsEvicted int64
	// SlabsBuilt and SlabsReused do the same for injectors.
	SlabsBuilt, SlabsReused int64
	// SpareRuns counts the runs that borrowed a spare core, and
	// ShardedCycles the network cycles they stepped on two goroutines
	// (see the package doc's "Determinism" section).
	SpareRuns, ShardedCycles int64
}

// FabricStats returns the process's cumulative set-up counters.
func FabricStats() FabricUse {
	var u FabricUse
	u.FabricsBuilt, u.FabricsReused, u.FabricsEvicted = sim.FabricStats()
	u.SlabsBuilt, u.SlabsReused = traffic.SlabStats()
	u.SpareRuns, u.ShardedCycles = sim.SpareStats()
	return u
}

// String renders the counters as the CLIs log them.
func (u FabricUse) String() string {
	return fmt.Sprintf("%d fabrics built, %d reused, %d evicted; %d injector slabs built, %d reused; %d runs borrowed a spare core, %d cycles stepped sharded",
		u.FabricsBuilt, u.FabricsReused, u.FabricsEvicted, u.SlabsBuilt, u.SlabsReused, u.SpareRuns, u.ShardedCycles)
}

// TheoreticalCapacity returns the scenario's theoretical channel-load
// capacity in flits per node per node cycle: the injection rate at which
// the busiest channel reaches what its router can send under the
// scenario's traffic matrix. Traffic takes the routes the simulator
// takes, around faulty links included, and a channel driven by a router
// in a slower island carries proportionally less. It is the analytic
// upper bound the measured saturation rate is compared against.
func TheoreticalCapacity(s Scenario) (float64, error) {
	s = s.normalized()
	if err := s.Validate(); err != nil {
		return 0, err
	}
	r, err := s.resolve()
	if err != nil {
		return 0, err
	}
	var m [][]float64
	switch {
	case r.trace != nil:
		if err := r.trace.Validate(r.cfg); err != nil {
			return 0, err
		}
		m = r.trace.Matrix()
	case s.App != "":
		if m, err = r.app.Matrix(); err != nil {
			return 0, err
		}
	default:
		p, err := traffic.ByName(s.Pattern, r.cfg)
		if err != nil {
			return 0, err
		}
		m = traffic.Matrix(p, r.cfg)
	}
	return noc.TheoreticalCapacity(r.cfg, r.faults, r.Islands, m)
}
