// Package exp is the parallel experiment engine: it fans a list of
// independent simulation points out across a bounded pool of worker
// goroutines and collects their results in input order.
//
// The evaluation behind the paper is a large grid of mutually independent
// runs (policies × traffic patterns × injection rates × mesh sizes), and
// every harness layer — core's saturation search and calibration, sweep's
// figure and ablation generators, the cmd front-ends — funnels its grid
// through this package instead of looping serially.
//
// # Determinism
//
// The engine never lets concurrency leak into results. Each point is a
// self-contained closure: it owns its RNG state (constructed inside the
// point from a deterministic seed — the sweeps reuse their scenario
// seed per point; Seed derives per-point streams for grids that want
// them), shares no mutable state with other points, and its result
// lands at its own index of the output slice.
// Consequently the output is byte-identical for any worker count,
// including Workers=1, which is the serial reference the golden tests
// compare against: the engine runs points one at a time on the calling
// goroutine, in index order, with no goroutines at all.
//
// # Leaf budget
//
// Worker pools bound goroutines per Map call, not work per process:
// nested grids (a panel point that fans out its own sub-grid) stack
// pools multiplicatively. The process-wide leaf budget (SetLeafBudget,
// AcquireLeaf) is the depth-aware bound: only the innermost unit of
// work — one simulation — holds a budget slot while it executes, so
// total in-flight simulations never exceed the budget no matter how
// deeply grids nest, and since panel jobs never hold slots the scheme
// cannot deadlock. A simulation steps on one goroutine, except that a
// saturated one may borrow a slot nobody else wants (SpareLeaves) and
// step half its mesh on a second goroutine; it hands the slot back
// within one network cycle of an AcquireLeaf caller starting to wait, so
// borrowing never delays another simulation.
//
// # Cancellation and failure
//
// Map derives a child context and cancels it on the first point error (or
// panic). No new points start, and in-flight points that observe the
// context (sim.RunContext does, inside the engine loop) abort promptly.
// Errors are reported as *PointError values, joined in index order; a
// panicking point is captured with its stack instead of taking down the
// process. Cancellation casualties — points that failed only because an
// earlier point's error tore down the grid — are dropped from the joined
// error so the root cause stays visible.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PointError carries the failure of one grid point.
type PointError struct {
	// Index is the point's position in the grid.
	Index int
	// Err is the point's error, or a wrapped panic value.
	Err error
	// Stack is the goroutine stack when the point panicked, nil otherwise.
	Stack []byte
}

func (e *PointError) Error() string {
	if e.Stack != nil {
		return fmt.Sprintf("exp: point %d panicked: %v\n%s", e.Index, e.Err, e.Stack)
	}
	return fmt.Sprintf("exp: point %d: %v", e.Index, e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// Seed derives the RNG seed of grid point index from a root seed, using a
// SplitMix64 finalizer so neighbouring indices map to statistically
// independent streams. The derivation is pure: the same (root, index)
// always yields the same seed, which is what keeps parallel execution
// byte-identical to serial execution. The public nocsim.Grid derives its
// per-point streams here, so replications and variance analysis across
// points see uncorrelated samples; any new grid should do the same.
func Seed(root int64, index int) int64 {
	z := uint64(root) + 0x9E3779B97F4A7C15*(uint64(index)+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Package-wide cumulative point counters: the aggregate of every Map
// call in the process, for coarse progress reporting across nested grids
// (cmd/figures polls them).
var (
	statScheduled atomic.Int64
	statDone      atomic.Int64
)

// Stats returns the cumulative number of points scheduled and completed
// by every Map call in the process, across all (possibly nested) grids.
func Stats() (scheduled, done int64) {
	return statScheduled.Load(), statDone.Load()
}

// Leaf budget: one process-wide cap on concurrently held *leaf* slots.
// Worker pools bound goroutines per Map call, so nested grids (a figure
// panel whose points each fan out their own sub-grid) multiply pools up
// to W² goroutines; the budget is what bounds the actual work. Only leaf
// work — a single simulation, wrapped in AcquireLeaf by the layer that
// runs it — holds a slot; panel/outer jobs never do, so a blocked leaf
// only ever waits on other leaves, which always finish: nesting cannot
// deadlock (a naive per-level semaphore would, with a panel holding a
// slot while its children wait for one). A simulation runs on one
// goroutine, so "budget = CPU cores" means about one busy core per slot.
// Waiters are served strictly FIFO.
var (
	leafMu      sync.Mutex
	leafCap     int // 0 until first use; then the configured budget
	leafInUse   int
	leafPeakN   int
	leafWaiters []chan struct{} // closed on grant
	// leafWaiting mirrors len(leafWaiters) for lock-free readers.
	leafWaiting atomic.Int32
)

// leafCapLocked returns the budget, defaulting to GOMAXPROCS on first
// use. Callers hold leafMu.
func leafCapLocked() int {
	if leafCap == 0 {
		leafCap = runtime.GOMAXPROCS(0)
	}
	return leafCap
}

// leafTakeLocked charges one slot. Callers hold leafMu.
func leafTakeLocked() {
	leafInUse++
	if leafInUse > leafPeakN {
		leafPeakN = leafInUse
	}
}

// leafGrantLocked hands free slots to queued waiters in FIFO order.
// Callers hold leafMu.
func leafGrantLocked() {
	budget := leafCapLocked()
	for len(leafWaiters) > 0 && leafInUse < budget {
		leafTakeLocked()
		close(leafWaiters[0])
		leafWaiters[0] = nil
		leafWaiters = leafWaiters[1:]
	}
	leafWaiting.Store(int32(len(leafWaiters)))
}

// SetLeafBudget caps the number of concurrently held leaf slots
// process-wide at n (n <= 0 restores the default, GOMAXPROCS). Slots
// already held keep counting against the new budget: shrinking below the
// current in-flight load admits no new leaves until enough slots drain;
// growing re-examines the wait queue immediately.
func SetLeafBudget(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	leafMu.Lock()
	defer leafMu.Unlock()
	leafCap = n
	leafGrantLocked()
}

// AcquireLeaf blocks until a leaf slot is free (or ctx is done) and
// returns the release function. Wrap exactly the execution of one leaf
// simulation: never hold a slot across code that acquires another, or
// the no-deadlock argument above is void.
func AcquireLeaf(ctx context.Context) (release func(), err error) {
	leafMu.Lock()
	if len(leafWaiters) == 0 && leafInUse < leafCapLocked() {
		leafTakeLocked()
		leafMu.Unlock()
		return leafRelease(), nil
	}
	ready := make(chan struct{})
	leafWaiters = append(leafWaiters, ready)
	leafWaiting.Store(int32(len(leafWaiters)))
	leafMu.Unlock()
	select {
	case <-ready:
		return leafRelease(), nil
	case <-ctx.Done():
		leafMu.Lock()
		defer leafMu.Unlock()
		for i, q := range leafWaiters {
			if q == ready {
				leafWaiters = append(leafWaiters[:i], leafWaiters[i+1:]...)
				leafWaiting.Store(int32(len(leafWaiters)))
				return nil, ctx.Err()
			}
		}
		// Lost the race: the grant landed before cancellation was seen.
		// Give the slot back.
		leafInUse--
		leafGrantLocked()
		return nil, ctx.Err()
	}
}

// leafRelease builds the (idempotent) release function for one held slot.
func leafRelease() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			leafMu.Lock()
			leafInUse--
			leafGrantLocked()
			leafMu.Unlock()
		})
	}
}

// SpareLeaves lends the leaf budget's free slots to running simulations:
// it is the noc.Spare through which a saturated run borrows a second core
// (nocsim.runSim offers it to every simulation). A slot counts as spare
// while it is free, nobody waits in AcquireLeaf, and the slots in use
// stay below GOMAXPROCS too, so a budget above the core count (-workers
// larger than the machine) lends nothing it has no core for.
type SpareLeaves struct{}

// TryBorrow takes a spare slot without blocking.
func (SpareLeaves) TryBorrow() bool {
	leafMu.Lock()
	defer leafMu.Unlock()
	if len(leafWaiters) > 0 || leafInUse >= leafCapLocked() || leafInUse >= runtime.GOMAXPROCS(0) {
		return false
	}
	leafTakeLocked()
	return true
}

// Wanted reports, without locking, whether an AcquireLeaf caller waits.
func (SpareLeaves) Wanted() bool { return leafWaiting.Load() > 0 }

// Return gives a borrowed slot back, to the first waiter if there is one.
func (SpareLeaves) Return() {
	leafMu.Lock()
	defer leafMu.Unlock()
	leafInUse--
	leafGrantLocked()
}

// LeafStats reports the number of leaf slots held right now and the
// high-water mark since the last ResetLeafPeak. The peak is the
// instrumented proof of the budget: it never exceeds the configured cap.
func LeafStats() (inFlight, peak int64) {
	leafMu.Lock()
	defer leafMu.Unlock()
	return int64(leafInUse), int64(leafPeakN)
}

// ResetLeafPeak clears the leaf high-water mark (for tests and for
// per-phase reporting).
func ResetLeafPeak() {
	leafMu.Lock()
	defer leafMu.Unlock()
	leafPeakN = leafInUse
}

// Map executes fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (<= 0 means GOMAXPROCS; 1 selects the serial reference path:
// points run on the calling goroutine in index order) and returns the
// results in index order. The returned error is nil only if every point
// succeeded; otherwise it joins the collected *PointError values in index
// order. On the first failure the derived context is cancelled and
// unstarted points are abandoned (their result slots keep the zero
// value).
//
// Nested Map calls are safe: a point may itself fan out a sub-grid. Each
// call bounds only its own pool, so deep nesting can oversubscribe the
// CPU, which costs some cache locality but never deadlocks.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	statScheduled.Add(int64(n))
	errs := make([]error, n)

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	finish := func(i int, err error) {
		statDone.Add(1)
		errs[i] = err
		if err != nil {
			cancel()
		}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if w := min(workers, n); w == 1 {
		// Serial reference path: index order on the calling goroutine.
		for i := 0; i < n && cctx.Err() == nil; i++ {
			finish(i, runPoint(cctx, i, fn, &results[i]))
		}
	} else {
		idx := make(chan int)
		go func() {
			defer close(idx)
			for i := 0; i < n; i++ {
				select {
				case idx <- i:
				case <-cctx.Done():
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					finish(i, runPoint(cctx, i, fn, &results[i]))
				}
			}()
		}
		wg.Wait()
	}

	// Partition failures: points that observed the cancellation of the
	// grid (in-flight sims abort with the context error once any point
	// fails) are casualties, not causes. When a genuine error exists,
	// report only the genuine ones; when every failure is a cancellation
	// (the caller's ctx was cancelled), keep them so errors.Is still
	// matches ctx.Err().
	var all, cancelled []error
	for _, e := range errs {
		switch {
		case e == nil:
		case errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded):
			cancelled = append(cancelled, e)
		default:
			all = append(all, e)
		}
	}
	if len(all) == 0 {
		all = cancelled
	}
	if len(all) == 0 && ctx.Err() != nil {
		all = append(all, ctx.Err())
	}
	return results, errors.Join(all...)
}

// runPoint executes one point, converting a panic into a *PointError with
// the offending stack attached.
func runPoint[T any](ctx context.Context, i int, fn func(context.Context, int) (T, error), out *T) (err error) {
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PointError{Index: i, Err: fmt.Errorf("panic: %v", p), Stack: buf}
		}
	}()
	v, err := fn(ctx, i)
	if err != nil {
		return &PointError{Index: i, Err: err}
	}
	*out = v
	return nil
}
