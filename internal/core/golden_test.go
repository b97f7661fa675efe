package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

// goldenCal is a fixed calibration so the golden tests exercise only the
// runs, not the saturation search.
func goldenCal() Calibration {
	return Calibration{SaturationRate: 0.42, LambdaMax: 0.378, TargetDelayNs: 150}
}

// TestGoldenParallelMatchesSerial is the determinism contract of a grid
// of RunOne points, the way nocsim fans one out: each point seeded by
// exp.Seed from the root seed and its grid position, the same root seed
// must produce bit-identical results whether the points run serially or
// concurrently, sharing the process's fabric and injector free lists.
func TestGoldenParallelMatchesSerial(t *testing.T) {
	loads := LoadGrid(0.3, 3)
	workerSet := []int{2, 8}
	if testing.Short() {
		loads = LoadGrid(0.3, 2)
		workerSet = []int{4}
	}
	kinds := []PolicyKind{NoDVFS, RMSD, DMSD}
	run := func(workers int) []sim.Result {
		res, err := exp.Map(context.Background(), workers, len(kinds)*len(loads),
			func(ctx context.Context, i int) (sim.Result, error) {
				s := quickScenario()
				s.Seed = exp.Seed(1, i)
				return RunOne(ctx, s, kinds[i/len(loads)], loads[i%len(loads)], goldenCal())
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range workerSet {
		par := run(workers)
		for i := range serial {
			if !reflect.DeepEqual(serial[i], par[i]) {
				t.Errorf("workers=%d: point %d differs from serial:\nserial:   %+v\nparallel: %+v",
					workers, i, serial[i], par[i])
			}
		}
	}
}

// TestGoldenFindSaturationParallelMatchesSerial pins the quarter-section
// search: the probe layout is fixed, so the measured saturation rate must
// not depend on the worker count.
func TestGoldenFindSaturationParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := quickScenario()
	s.Workers = 1
	serial, _, err := FindSaturation(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 8
	parallel, _, err := FindSaturation(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Errorf("saturation rate depends on workers: serial %v, parallel %v", serial, parallel)
	}
}
