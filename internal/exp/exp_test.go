package exp

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// simulatePoint is a small deterministic CPU-bound stand-in for one
// simulation run: a seeded random walk whose value depends only on the
// seed, never on scheduling.
func simulatePoint(seed int64, steps int) float64 {
	rng := rand.New(rand.NewSource(seed))
	x := 0.0
	for i := 0; i < steps; i++ {
		x += rng.Float64() - 0.5
	}
	return x
}

func TestRunOrdersResults(t *testing.T) {
	got, err := Map(context.Background(), 8, 100, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	const n = 64
	point := func(_ context.Context, i int) (float64, error) {
		return simulatePoint(Seed(42, i), 2000), nil
	}
	serial, err := Map(context.Background(), 1, n, point)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		par, err := Map(context.Background(), workers, n, point)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: result[%d] = %v, serial %v", workers, i, par[i], serial[i])
			}
		}
	}
}

func TestRunZeroPoints(t *testing.T) {
	got, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Error("fn called for empty grid")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestRunErrorCancelsAndReports(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	_, err := Map(context.Background(), 2, 50, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 3 {
			return 0, boom
		}
		// Give the canceller time to take effect so late points are skipped.
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the point error", err)
	}
	var pe *PointError
	if !errors.As(err, &pe) || pe.Index != 3 {
		t.Fatalf("error %v is not a PointError for index 3", err)
	}
	if n := started.Load(); n == 50 {
		t.Error("cancellation did not stop scheduling new points")
	}
}

// TestRunRealErrorNotBuriedByCancellations: when one point genuinely
// fails, in-flight points that abort with the grid's cancellation must
// not appear in the joined error — the root cause stays visible.
func TestRunRealErrorNotBuriedByCancellations(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(context.Background(), 4, 12, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			return 0, boom
		}
		// Context-observing points (like sim.RunContext) report the
		// cancellation the failing point triggered.
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(50 * time.Millisecond):
			return i, nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the real failure", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("joined error %q includes cancellation casualties", err)
	}
}

func TestRunPanicCapture(t *testing.T) {
	res, err := Map(context.Background(), 4, 10, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a PointError", err)
	}
	if pe.Index != 5 || pe.Stack == nil {
		t.Fatalf("PointError %+v missing index/stack", pe)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error %q does not mention the panic value", err)
	}
	if res[5] != 0 {
		t.Errorf("panicked point left non-zero result %d", res[5])
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	go func() {
		for done.Load() < 5 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	_, err := Map(ctx, 2, 10_000, func(ctx context.Context, i int) (int, error) {
		done.Add(1)
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v is not context.Canceled", err)
	}
	if n := done.Load(); n == 10_000 {
		t.Error("cancellation did not stop the grid")
	}
}

func TestStatsAccumulate(t *testing.T) {
	s0, d0 := Stats()
	if _, err := Map(context.Background(), 4, 25, func(_ context.Context, i int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	s1, d1 := Stats()
	if s1-s0 != 25 || d1-d0 != 25 {
		t.Errorf("Stats moved by (%d, %d), want (25, 25)", s1-s0, d1-d0)
	}
}

// TestLeafBudgetCapsNestedGrids is the depth-aware scheduling contract:
// an outer grid of panels, each fanning out its own leaf sub-grid, piles
// up outer×inner workers, yet the number of concurrently *executing*
// leaves — the only thing holding budget slots — never exceeds the
// budget.
func TestLeafBudgetCapsNestedGrids(t *testing.T) {
	const budget = 3
	SetLeafBudget(budget)
	defer SetLeafBudget(0)
	ResetLeafPeak()

	leaf := func(ctx context.Context) (int64, error) {
		release, err := AcquireLeaf(ctx)
		if err != nil {
			return 0, err
		}
		defer release()
		busy, _ := LeafStats()
		time.Sleep(time.Millisecond) // hold the slot long enough to overlap
		return busy, nil
	}
	// 4 panels × 6 leaves with generous worker pools: up to 24 goroutines
	// want to simulate at once.
	got, err := Map(context.Background(), 4, 4, func(ctx context.Context, i int) (int64, error) {
		inner, err := Map(ctx, 6, 6, func(ctx context.Context, j int) (int64, error) {
			return leaf(ctx)
		})
		if err != nil {
			return 0, err
		}
		m := int64(0)
		for _, b := range inner {
			m = max(m, b)
		}
		return m, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b > budget {
			t.Errorf("panel %d observed %d in-flight leaves, budget %d", i, b, budget)
		}
	}
	if inFlight, peak := LeafStats(); inFlight != 0 || peak > budget {
		t.Errorf("LeafStats = (%d, %d), want (0, <= %d)", inFlight, peak, budget)
	}
	if _, peak := LeafStats(); peak < 2 {
		t.Errorf("peak %d: leaves never overlapped, the test proved nothing", peak)
	}
}

// TestLeafBudgetOneNoDeadlock pins the no-deadlock argument: even a
// budget of 1 under deep nesting completes, because panel jobs never
// hold slots while waiting on their children (a naive per-level
// semaphore would deadlock here immediately).
func TestLeafBudgetOneNoDeadlock(t *testing.T) {
	SetLeafBudget(1)
	defer SetLeafBudget(0)
	done := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), 8, 8, func(ctx context.Context, i int) (int, error) {
			inner, err := Map(ctx, 4, 4, func(ctx context.Context, j int) (int, error) {
				release, err := AcquireLeaf(ctx)
				if err != nil {
					return 0, err
				}
				defer release()
				return i*10 + j, nil
			})
			if err != nil {
				return 0, err
			}
			return len(inner), nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested grids deadlocked under leaf budget 1")
	}
}

func TestAcquireLeafHonorsCancellation(t *testing.T) {
	SetLeafBudget(1)
	defer SetLeafBudget(0)
	release, err := AcquireLeaf(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := AcquireLeaf(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked AcquireLeaf returned %v, want deadline exceeded", err)
	}
	release()
	// The slot really was freed: a fresh acquire succeeds immediately.
	release2, err := AcquireLeaf(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release2()
}

func TestAcquireLeafReleaseIdempotent(t *testing.T) {
	SetLeafBudget(2)
	defer SetLeafBudget(0)
	release, err := AcquireLeaf(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // double release must not free a second slot or go negative
	if busy, _ := LeafStats(); busy != 0 {
		t.Fatalf("busy = %d after double release, want 0", busy)
	}
}

// TestAcquireLeafFIFO: waiters are granted in arrival order, one per
// released slot.
func TestAcquireLeafFIFO(t *testing.T) {
	SetLeafBudget(1)
	defer SetLeafBudget(0)
	held, err := AcquireLeaf(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan int, 2)
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func(i int) {
			rel, err := AcquireLeaf(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			granted <- i
			<-release
			rel()
		}(i)
		// Wait until waiter i is actually queued before starting the next.
		for {
			if func() bool { leafMu.Lock(); defer leafMu.Unlock(); return len(leafWaiters) == i+1 }() {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	held()
	if first := <-granted; first != 0 {
		t.Fatalf("waiter %d granted first, want 0", first)
	}
	select {
	case i := <-granted:
		t.Fatalf("waiter %d granted while the only slot is held", i)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if second := <-granted; second != 1 {
		t.Fatalf("waiter %d granted second, want 1", second)
	}
	// Both waiters release on the closed channel; wait for the slots.
	for {
		if busy, _ := LeafStats(); busy == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSeedDeterministicAndSpread(t *testing.T) {
	if Seed(1, 0) != Seed(1, 0) {
		t.Fatal("Seed not deterministic")
	}
	seen := map[int64]bool{}
	for root := int64(0); root < 4; root++ {
		for i := 0; i < 256; i++ {
			s := Seed(root, i)
			if seen[s] {
				t.Fatalf("seed collision at root %d index %d", root, i)
			}
			seen[s] = true
		}
	}
	// Adjacent indices must not produce correlated low bits (a plain
	// root+index seed would).
	if Seed(7, 1)-Seed(7, 0) == 1 {
		t.Error("adjacent seeds differ by 1: finalizer not mixing")
	}
}

func TestNestedRuns(t *testing.T) {
	got, err := Map(context.Background(), 4, 8, func(ctx context.Context, i int) (int, error) {
		inner, err := Map(ctx, 2, 4, func(_ context.Context, j int) (int, error) {
			return i*10 + j, nil
		})
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := i*40 + 6
		if v != want {
			t.Fatalf("nested result[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestWorkerPoolSpeedup demonstrates the engine's wall-clock win on
// CPU-bound points. It needs real parallel hardware, so it skips below 4
// cores (the sim-level speedup test in internal/core has the same gate).
func TestWorkerPoolSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("need >= 4 cores for a meaningful speedup, have %d", cores)
	}
	const n = 64
	point := func(_ context.Context, i int) (float64, error) {
		return simulatePoint(Seed(9, i), 3_000_000), nil
	}
	timeIt := func(workers int) time.Duration {
		start := time.Now()
		if _, err := Map(context.Background(), workers, n, point); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timeIt(cores) // warm up
	serial := timeIt(1)
	parallel := timeIt(cores)
	t.Logf("serial %v, parallel %v on %d cores (%.1fx)", serial, parallel, cores,
		float64(serial)/float64(parallel))
	if parallel > serial/2 {
		t.Errorf("parallel %v not >= 2x faster than serial %v on %d cores", parallel, serial, cores)
	}
}

func BenchmarkRunSerial(b *testing.B) {
	benchRun(b, 1)
}

func BenchmarkRunParallel(b *testing.B) {
	benchRun(b, 0)
}

func benchRun(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		if _, err := Map(context.Background(), workers, 32, func(_ context.Context, j int) (float64, error) {
			return simulatePoint(Seed(int64(i), j), 100_000), nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
