package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/noc"
)

// TestSearchCancelledMidRound: the caller's context ends while a round is
// half decided — the middle probe has reported saturated and stopped the
// one above it, the lowest is still in flight. The search's own per-probe
// cancellations must not swallow the caller's: the round fails with
// ctx.Err().
func TestSearchCancelledMidRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const guess = 0.8
	topStarted, topStopped := make(chan struct{}), make(chan struct{})
	probe := func(pctx context.Context, load float64) (bool, error) {
		switch load {
		case guess:
			return true, nil
		case 0.25 * guess: // in flight until the caller gives up
			<-pctx.Done()
			return false, pctx.Err()
		case 0.50 * guess: // reports once the top probe is there to be stopped
			<-topStarted
			return true, nil
		default: // 0.75: stopped by the middle probe, after which the caller cancels
			close(topStarted)
			<-pctx.Done()
			close(topStopped)
			return false, pctx.Err()
		}
	}
	go func() {
		<-topStopped
		cancel()
	}()
	before := runtime.NumGoroutine()
	_, st, err := searchSaturation(ctx, 3, guess, 1, probe)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Probes != 4 {
		t.Errorf("stats %+v, want the first guess and one round of three", st)
	}
	waitForGoroutines(t, before)
}

// TestFindSaturationCancelled: cancelling the caller's context while the
// search's simulations are running returns ctx.Err() promptly and leaves
// no goroutine behind.
func TestFindSaturationCancelled(t *testing.T) {
	// A loaded 8x8 search is seconds of work; 150 ms lands inside it.
	s := Scenario{Noc: noc.DefaultConfig(), Pattern: "uniform", Workers: 3}
	s.Noc.Width, s.Noc.Height = 8, 8
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(150*time.Millisecond, cancel)

	start := time.Now()
	_, _, err := FindSaturation(ctx, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled search returned after %v, want prompt return", d)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines asserts the goroutine count returns to the baseline
// (with a little slack for runtime helpers) within a grace period.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
