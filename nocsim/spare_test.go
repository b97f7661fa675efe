package nocsim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/volt"
)

// heavyParams is an 8x8 under uniform traffic at load flits/node/cycle
// (0.3 is 0.85 of its saturation), measuring for measure node cycles.
func heavyParams(t *testing.T, load float64, measure int64) sim.Params {
	t.Helper()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 8, 8
	inj, err := traffic.NewInjector(cfg, traffic.NewUniform(cfg), load, 7)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Params{Noc: cfg, Injector: inj, Policy: dvfs.NewNoDVFS(1e9), VF: volt.New(), Warmup: 1000, Measure: measure}
}

// withLeaves runs the test on a leaf budget of n slots and n Ps, so that
// a run may borrow the slots nobody holds.
func withLeaves(t *testing.T, n int) {
	t.Helper()
	procs := runtime.GOMAXPROCS(n)
	exp.SetLeafBudget(n)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		exp.SetLeafBudget(0)
	})
}

// awaitLeaves waits until n leaf slots are held.
func awaitLeaves(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if inFlight, _ := exp.LeafStats(); inFlight == n {
			return
		}
		if time.Now().After(deadline) {
			inFlight, _ := exp.LeafStats()
			t.Fatalf("%d leaf slots held, want %d", inFlight, n)
		}
	}
}

// awaitSettled requires that, soon after a run ended, no leaf slot is held
// and no helper goroutine is stepping a network.
func awaitSettled(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		inFlight, _ := exp.LeafStats()
		stacks := string(buf[:runtime.Stack(buf, true)])
		serving := strings.Contains(stacks, "noc.(*Network).serve")
		if inFlight == 0 && !serving {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the run: %d leaf slots held, a helper serving: %v\n%s", inFlight, serving, stacks)
		}
	}
}

// TestSpareLeafHandedBackOnDemand: with one slot held elsewhere, a heavy
// 8x8 run borrows the last free one; an AcquireLeaf caller that then
// starts waiting gets it within 50 ms.
func TestSpareLeafHandedBackOnDemand(t *testing.T) {
	withLeaves(t, 3)
	hold, err := exp.AcquireLeaf(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := runSim(ctx, heavyParams(t, 0.3, 1<<40))
		done <- err
	}()
	awaitLeaves(t, 3) // the held slot, the run's, the borrowed one

	start := time.Now()
	release, err := exp.AcquireLeaf(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if wait := time.Since(start); wait > 50*time.Millisecond {
		t.Errorf("AcquireLeaf waited %v for the borrowed slot, want under 50 ms", wait)
	}
	release()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("run ended with %v, want context.Canceled", err)
	}
	hold()
	awaitSettled(t)
}

// panicPolicy is No-DVFS until its second control update, which panics.
type panicPolicy struct {
	dvfs.Policy
	updates int
}

func (p *panicPolicy) Next(m dvfs.Measurement) float64 {
	if p.updates++; p.updates == 2 {
		panic("policy blew up")
	}
	return p.Policy.Next(m)
}

// TestSpareLeafReturnedWhenRunEnds: a run that borrowed a slot hands it
// back and lets go of its helper however it ends — cancelled mid-flight,
// stopped by the saturation abort, or panicking.
func TestSpareLeafReturnedWhenRunEnds(t *testing.T) {
	withLeaves(t, 2)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"cancelled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := runSim(ctx, heavyParams(t, 0.3, 1<<40))
				done <- err
			}()
			awaitLeaves(t, 2)
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("run ended with %v, want context.Canceled", err)
			}
		}},
		{"saturation abort", func(t *testing.T) {
			res, err := runSim(context.Background(), heavyParams(t, 1.0, 1<<40))
			if err != nil || !res.Saturated {
				t.Fatalf("run ended with (saturated %v, %v), want the abort", res.Saturated, err)
			}
		}},
		{"panic", func(t *testing.T) {
			p := heavyParams(t, 0.3, 1<<40)
			p.Policy = &panicPolicy{Policy: p.Policy}
			p.ControlPeriod = 3000
			got := func() (v any) {
				defer func() { v = recover() }()
				runSim(context.Background(), p)
				return nil
			}()
			if got != "policy blew up" {
				t.Fatalf("run panicked with %v", got)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs, _ := sim.SpareStats()
			tc.run(t)
			if after, _ := sim.SpareStats(); after != runs+1 {
				t.Fatal("the run never borrowed a slot")
			}
			awaitSettled(t)
		})
	}
}
