package nocsim

import (
	"context"
	"testing"
)

func testGrid(t *testing.T) Grid {
	t.Helper()
	return Grid{
		Base:     quickBase(),
		Loads:    []float64{0.1, 0.2},
		Policies: []PolicyKind{NoDVFS, RMSD},
	}
}

// TestSweepMatchesPointRuns is the distributed-job contract: running
// Grid.Point(i) standalone — as a remote worker would after receiving
// the resolved grid over the wire — reproduces exactly what Sweep
// reports at index i.
func TestSweepMatchesPointRuns(t *testing.T) {
	ctx := context.Background()
	g, err := testGrid(t).Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Sweep(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != g.Len() {
		t.Fatalf("got %d results, want %d", len(results), g.Len())
	}
	for i := range results {
		p, err := g.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := Run(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if metricsJSON(t, results[i]) != metricsJSON(t, solo) {
			t.Errorf("point %d: standalone run differs from sweep:\nsweep %s\nsolo  %s",
				i, metricsJSON(t, results[i]), metricsJSON(t, solo))
		}
		if results[i].Meta.PointIndex != i {
			t.Errorf("point %d: meta index %d", i, results[i].Meta.PointIndex)
		}
	}
}

// TestSweepWorkerDeterminism: the sweep output must be byte-identical
// for every worker bound.
func TestSweepWorkerDeterminism(t *testing.T) {
	ctx := context.Background()
	run := func(workers int) []Result {
		g := testGrid(t)
		g.Base.Workers = workers
		results, err := Sweep(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if metricsJSON(t, serial[i]) != metricsJSON(t, parallel[i]) {
			t.Errorf("point %d differs between worker counts", i)
		}
	}
}

// TestGridPointSeeds: neighbouring points get distinct derived streams,
// and the derivation is stable (pure in base seed and index).
func TestGridPointSeeds(t *testing.T) {
	g := testGrid(t)
	seen := make(map[int64]int)
	for i := 0; i < g.Len(); i++ {
		p, err := g.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		if p.Seed == g.Base.Seed {
			t.Errorf("point %d reuses the root seed", i)
		}
		if j, dup := seen[p.Seed]; dup {
			t.Errorf("points %d and %d share seed %d", j, i, p.Seed)
		}
		seen[p.Seed] = i
		again, err := g.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		if again.Seed != p.Seed {
			t.Errorf("point %d seed not stable", i)
		}
	}
}

// TestGridPointRange: out-of-range indices are rejected.
func TestGridPointRange(t *testing.T) {
	g := testGrid(t)
	if _, err := g.Point(-1); err == nil {
		t.Error("accepted point -1")
	}
	if _, err := g.Point(g.Len()); err == nil {
		t.Errorf("accepted point %d", g.Len())
	}
}

// TestSweepDefaultsToBasePoint: an empty grid is one point — the base
// scenario itself.
func TestSweepDefaultsToBasePoint(t *testing.T) {
	ctx := context.Background()
	results, err := Sweep(ctx, Grid{Base: quickBase()})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	if results[0].Scenario.Load != 0.15 || results[0].Scenario.Policy != NoDVFS {
		t.Errorf("base point altered: %+v", results[0].Scenario)
	}
}

// TestResolveCalibratesOnce: resolving a grid with a policy that needs
// operating points pins a calibration on the base.
func TestResolveCalibratesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs a saturation search")
	}
	g := Grid{
		Base:     Scenario{Pattern: "uniform", Quick: true},
		Loads:    []float64{0.1},
		Policies: []PolicyKind{NoDVFS, DMSD},
	}
	resolved, err := g.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Base.Calibration == nil {
		t.Fatal("Resolve did not pin a calibration")
	}
	p, err := resolved.Point(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Calibration == nil || *p.Calibration != *resolved.Base.Calibration {
		t.Error("points do not carry the pinned calibration")
	}
}
