package nocsim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exp"
)

// Grid describes a sweep: one base scenario crossed with a list of loads
// and a list of policies. Like Scenario it marshals to and from JSON
// losslessly, so a resolved grid plus a point index is a complete,
// self-contained job description — the unit of work for distributing a
// sweep across machines.
type Grid struct {
	// Base is the scenario every point starts from.
	Base Scenario `json:"base"`
	// Loads are the operating points to sweep. Empty means Base.Load
	// only.
	Loads []float64 `json:"loads,omitempty"`
	// Policies are the controllers to sweep. Empty means Base.Policy
	// only.
	Policies []PolicyKind `json:"policies,omitempty"`
}

// Len returns the number of points in the grid.
func (g Grid) Len() int {
	return max(1, len(g.Policies)) * max(1, len(g.Loads))
}

// Point returns grid point i as a self-contained Scenario: policies are
// the outer dimension and loads the inner one, so point i carries policy
// i/len(loads) at load i%len(loads). The point's seed is an independent
// RNG stream derived from the base seed and i (SplitMix64), so
// neighbouring points — and replications that re-run the grid under
// different root seeds — see uncorrelated samples. Running the returned
// scenario with Run reproduces exactly the result Sweep reports at index
// i, provided the grid was resolved first (see Resolve).
func (g Grid) Point(i int) (Scenario, error) {
	if i < 0 || i >= g.Len() {
		return Scenario{}, fmt.Errorf("nocsim: grid point %d out of range [0, %d)", i, g.Len())
	}
	s := g.Base.normalized()
	nl := max(1, len(g.Loads))
	if len(g.Policies) > 0 {
		s.Policy = g.Policies[i/nl]
	}
	if len(g.Loads) > 0 {
		s.Load = g.Loads[i%nl]
	}
	s.Seed = exp.Seed(s.Seed, i)
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Resolve returns the grid with its base scenario normalized and — when
// any swept policy needs one and none is attached — calibrated once.
// Resolving before shipping points to remote workers is what keeps a
// distributed sweep identical to a local one: every point then carries
// the same pinned calibration instead of re-deriving its own.
func (g Grid) Resolve(ctx context.Context) (Grid, error) {
	g.Base = g.Base.normalized()
	if err := g.Base.Validate(); err != nil {
		return Grid{}, err
	}
	needsCal := g.Base.Policy != NoDVFS && len(g.Policies) == 0
	for _, p := range g.Policies {
		if p != NoDVFS {
			needsCal = true
		}
	}
	if needsCal && g.Base.Calibration == nil {
		cal, err := calibrate(ctx, g.Base)
		if err != nil {
			return Grid{}, err
		}
		g.Base.Calibration = &cal
	}
	return g, nil
}

// LoadGrid returns n evenly spaced loads in (0, max], excluding zero —
// the standard load axis for comparison grids (core's helper, re-exported
// so grid planners never drift from the internal convention).
func LoadGrid(max float64, n int) []float64 {
	return core.LoadGrid(max, n)
}

// Sweep resolves the grid and runs every point, fanning them across the
// experiment engine's worker pool under Base.Workers. Results arrive in
// point order and are byte-identical for every worker count: each point
// is the self-contained scenario Grid.Point returns, with its own derived
// RNG stream. Cancelling ctx aborts in-flight points promptly and returns
// ctx.Err().
func Sweep(ctx context.Context, g Grid) ([]Result, error) {
	g, err := g.Resolve(ctx)
	if err != nil {
		return nil, err
	}
	workers := g.Base.Workers
	if g.Base.observed() {
		// A shared packet log or trace sink would interleave records
		// across concurrent points; keep the capture coherent by running
		// serially.
		workers = 1
	}
	results, err := exp.Map(ctx, workers, g.Len(),
		func(ctx context.Context, i int) (Result, error) {
			p, err := g.Point(i)
			if err != nil {
				return Result{}, err
			}
			r, err := run(ctx, p)
			if err != nil {
				return Result{}, err
			}
			r.Meta.PointIndex = i
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}
