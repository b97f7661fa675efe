package nocsim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dvfs"
)

// sequentialSearch is the reference bracket logic: every probe of a round
// is evaluated, then the outcomes are scanned in index order up to the
// first saturated one. searchSaturation must select the same bracket
// while evaluating fewer probes.
func sequentialSearch(hi, maxLoad float64, saturated func(float64) bool) float64 {
	lo := 0.0
	if !saturated(hi) {
		lo = hi
		if hi >= maxLoad {
			return maxLoad
		}
		rungs := []float64{min(hi*1.3, maxLoad)}
		for len(rungs) < 3 && rungs[len(rungs)-1] < maxLoad {
			rungs = append(rungs, min(rungs[len(rungs)-1]*1.3, maxLoad))
		}
		found := false
		for _, r := range rungs {
			if saturated(r) {
				hi, found = r, true
				break
			}
			lo = r
		}
		if !found {
			if rungs[len(rungs)-1] >= maxLoad {
				return maxLoad
			}
			hi = min(lo*1.3, maxLoad)
		}
	}
	for round := 0; round < 5 && (hi-lo)/hi > 0.02; round++ {
		for _, p := range []float64{lo + 0.25*(hi-lo), lo + 0.50*(hi-lo), lo + 0.75*(hi-lo)} {
			if saturated(p) {
				hi = p
				break
			}
			lo = p
		}
	}
	if lo == 0 {
		return (lo + hi) / 2
	}
	return lo
}

// TestSearchMatchesSequential drives the bracket logic with stubbed probe
// predicates — monotone knees on either side of the first guess, a fabric
// that never saturates, and non-monotone outcomes where a probe above the
// first saturated one reads clear again — and requires the rate a
// sequential scan selects, for the serial path and for worker pools wide
// enough to run a whole round at once.
func TestSearchMatchesSequential(t *testing.T) {
	knee := func(k float64) func(float64) bool {
		return func(load float64) bool { return load >= k }
	}
	cases := []struct {
		name        string
		hi, maxLoad float64
		saturated   func(float64) bool
	}{
		{"knee below guess", 0.5, 1, knee(0.31)},
		{"knee just under guess", 0.5, 1, knee(0.499)},
		{"knee on second rung", 0.3, 1, knee(0.45)},
		{"knee past the ladder", 0.2, 1, knee(0.6)},
		{"never saturates", 0.5, 1, knee(2)},
		{"ladder reaches the ceiling", 0.9, 1, knee(2)},
		// p1 clear, p2 saturated, p3 clear in the first round (probes at
		// 0.2, 0.4, 0.6 of the guess 0.8): the window [0.35, 0.45)
		// saturates, loads above it do not.
		{"clear-saturated-clear", 0.8, 1, func(l float64) bool { return l >= 0.8 || (l >= 0.35 && l < 0.45) }},
		// Saturated islands on the expansion ladder too.
		{"non-monotone ladder", 0.3, 1, func(l float64) bool { return l > 0.45 && l < 0.55 }},
	}
	for _, tc := range cases {
		want := sequentialSearch(tc.hi, tc.maxLoad, tc.saturated)
		for _, workers := range []int{1, 2, 3, 8} {
			var calls atomic.Int64
			probe := func(_ context.Context, load float64) (bool, error) {
				calls.Add(1)
				return tc.saturated(load), nil
			}
			got, st, err := searchSaturation(context.Background(), workers, tc.hi, tc.maxLoad, probe)
			if err != nil {
				t.Fatalf("%s, workers %d: %v", tc.name, workers, err)
			}
			if got != want {
				t.Errorf("%s, workers %d: rate %v, sequential scan selects %v", tc.name, workers, got, want)
			}
			// A probe that never started was not called; one stopped in
			// flight was. Serially nothing is in flight when a probe reports.
			if n := int(calls.Load()); n > st.probes || n < st.probes-st.cancelled {
				t.Errorf("%s, workers %d: %d probe calls for stats %+v", tc.name, workers, n, st)
			} else if workers == 1 && n != st.probes-st.cancelled {
				t.Errorf("%s, serial: %d probe calls, stats %+v say %d ran", tc.name, n, st, st.probes-st.cancelled)
			}
		}
	}
}

// TestProbeRoundStopsProbesAboveTheFirstSaturated: once the lowest probe
// reports saturated the other two are cancelled mid-flight, their
// cancellation is not an error, and a probe that fails for a reason of
// its own still fails the round.
func TestProbeRoundStopsProbesAboveTheFirstSaturated(t *testing.T) {
	loads := []float64{0.1, 0.2, 0.3}
	started := make(chan struct{}, len(loads))
	probe := func(ctx context.Context, load float64) (bool, error) {
		started <- struct{}{}
		if load == loads[0] {
			// Report only once the others are in flight, so they have to
			// be stopped rather than skipped.
			for range loads {
				<-started
			}
			return true, nil
		}
		<-ctx.Done()
		return false, ctx.Err()
	}
	var st searchStats
	first, err := probeRound(context.Background(), len(loads), loads, probe, &st)
	if err != nil || first != 0 {
		t.Fatalf("first = %d, err = %v; want 0, nil", first, err)
	}
	if st.probes != 3 || st.cancelled != 2 {
		t.Errorf("stats %+v, want 3 probes of which 2 cancelled", st)
	}

	boom := errors.New("boom")
	_, err = probeRound(context.Background(), 1, loads, func(_ context.Context, load float64) (bool, error) {
		return false, fmt.Errorf("load %g: %w", load, boom)
	}, &st)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the probe's own error", err)
	}
}

// TestSearchIgnoresControllerFields: the search belongs to the fabric and
// its traffic, so the PI-transient scenario (Transient, the paper's
// control period pinned against the quick shortening) and a gain or level
// ablation must find the baseline's saturation rate, seed by seed.
func TestSearchIgnoresControllerFields(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs sixteen saturation searches")
	}
	for seed := int64(1); seed <= 8; seed++ {
		base := quickScenario()
		base.Seed = seed
		want, _, err := mustResolve(t, base).search(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		pi := base
		pi.Transient = true
		pi.ControlPeriod = dvfs.ControlPeriodNodeCycles
		pi.KI, pi.KP, pi.FreqLevels = 0.05, 0.025, 4
		got, _, err := mustResolve(t, pi).search(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("seed %d: saturation %v with controller fields set, %v without", seed, got, want)
		}
	}
}
