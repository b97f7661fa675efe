package queue

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/nocsim"
	"repro/nocsim/manifest"
)

// fetchStatus reads one manifest's progress through the coordinator's
// GET /v1/status endpoint.
func fetchStatus(ctx context.Context, c *Client, name string) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodGet, "/v1/status/"+name, nil, &st)
	return st, err
}

// testManifest builds a small manifest whose points never need real
// simulation in these tests: the coordinator only hands out indices and
// records whatever results are posted.
func testManifest(t *testing.T, name string, loads int) *manifest.Manifest {
	t.Helper()
	base := nocsim.Scenario{Mesh: nocsim.DefaultMesh(), Pattern: "uniform", Quick: true, Seed: 1}.Normalized()
	base.Calibration = &nocsim.Calibration{SaturationRate: 0.6, LambdaMax: 0.54, TargetDelayNs: 100}
	ls := make([]float64, loads)
	for i := range ls {
		ls[i] = 0.1 * float64(i+1)
	}
	return &manifest.Manifest{Name: name, Quick: true, Points: loads, Seed: 1, Panels: []manifest.Panel{
		{Label: "a", Grid: nocsim.Grid{Base: base, Loads: ls, Policies: []nocsim.PolicyKind{nocsim.NoDVFS}}},
	}}
}

func fakeResult(i int) nocsim.Result {
	var r nocsim.Result
	r.AvgDelayNs = float64(100 + i)
	r.Meta.PointIndex = i
	return r
}

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// journalLines returns the journal's raw lines (one per durable record).
func journalLines(t *testing.T, st *manifest.DirStore, name string) []string {
	t.Helper()
	data, err := os.ReadFile(st.PointsPath(name))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(data), "\n"), "\n")
}

// TestLeaseExpiryReissueExactlyOnce is the fault-model acceptance test:
// a worker that leases a point and dies has its lease re-issued after
// the TTL, the point lands exactly once in the journal even when the
// dead worker's result arrives late, and the coordinator leaves no
// goroutines behind (it runs none; the assertion pins that).
func TestLeaseExpiryReissueExactlyOnce(t *testing.T) {
	before := runtime.NumGoroutine()

	clock := &fakeClock{now: time.Unix(1000, 0)}
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, "x", 2)
	if err := st.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	c := New(Config{LeaseTTL: time.Second, Store: st, Clock: clock.Now})
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv := httptest.NewServer(c.Handler())
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	// Worker "dead" leases point 0 and never posts.
	ls, err := client.Lease(ctx, LeaseRequest{Worker: "dead"})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Status != StatusLease || ls.Index != 0 {
		t.Fatalf("first lease = %+v, want lease of point 0", ls)
	}

	// While the lease is live the point is not handed out again.
	ls2, err := client.Lease(ctx, LeaseRequest{Worker: "live"})
	if err != nil {
		t.Fatal(err)
	}
	if ls2.Status != StatusLease || ls2.Index != 1 {
		t.Fatalf("second lease = %+v, want lease of point 1", ls2)
	}
	if err := client.PostResult(ctx, ResultRequest{Worker: "live", Name: "x", Index: 1, Result: fakeResult(1)}); err != nil {
		t.Fatal(err)
	}
	if ls3, err := client.Lease(ctx, LeaseRequest{Worker: "live"}); err != nil || ls3.Status != StatusWait {
		t.Fatalf("lease while point 0 still held = (%+v, %v), want wait", ls3, err)
	}

	// The dead worker's lease expires; the point is re-issued.
	clock.Advance(2 * time.Second)
	ls4, err := client.Lease(ctx, LeaseRequest{Worker: "live"})
	if err != nil {
		t.Fatal(err)
	}
	if ls4.Status != StatusLease || ls4.Index != 0 {
		t.Fatalf("post-expiry lease = %+v, want re-issued point 0", ls4)
	}
	if err := client.PostResult(ctx, ResultRequest{Worker: "live", Name: "x", Index: 0, Result: fakeResult(0)}); err != nil {
		t.Fatal(err)
	}

	// The dead worker turns out to have been merely slow: its late post
	// is acknowledged but must not add a second journal line.
	if err := client.PostResult(ctx, ResultRequest{Worker: "dead", Name: "x", Index: 0, Result: fakeResult(0)}); err != nil {
		t.Fatalf("late duplicate post rejected: %v", err)
	}

	if ls5, err := client.Lease(ctx, LeaseRequest{Worker: "live"}); err != nil || ls5.Status != StatusDone {
		t.Fatalf("lease after completion = (%+v, %v), want done", ls5, err)
	}
	st2, err := fetchStatus(ctx, client, "x")
	if err != nil || !st2.Complete || st2.Done != 2 {
		t.Fatalf("status = (%+v, %v), want complete 2/2", st2, err)
	}

	srv.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := journalLines(t, st, "x"); len(lines) != 2 {
		t.Fatalf("journal holds %d lines, want exactly 2 (one per point): %v", len(lines), lines)
	}

	// The coordinator spawns no goroutines (expiry is lazy); whatever the
	// HTTP test server used must drain too.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestCoordinatorResumeFromJournal kills a coordinator mid-run and
// starts a fresh one over the same directory: the journaled points are
// not recomputed, the remaining points are leaseable, and the final
// journal still holds each point exactly once.
func TestCoordinatorResumeFromJournal(t *testing.T) {
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, "x", 3)
	if err := st.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	c1 := New(Config{Store: st})
	if err := c1.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c1.Seal()
	if _, err := c1.Lease(LeaseRequest{Worker: "w"}); err != nil {
		t.Fatal(err)
	}
	if err := c1.PostResult(ResultRequest{Worker: "w", Name: "x", Index: 0, Result: fakeResult(0)}); err != nil {
		t.Fatal(err)
	}
	// Crash: no graceful close beyond releasing the file handle.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same store: the journal is the coordinator's state.
	stored, err := st.LoadManifest("x")
	if err != nil || stored == nil {
		t.Fatalf("stored manifest = (%v, %v)", stored, err)
	}
	have, err := st.LoadPoints("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(have) != 1 || have[0].AvgDelayNs != 100 {
		t.Fatalf("journal after crash = %v, want point 0 only", have)
	}
	c2 := New(Config{Store: st})
	if err := c2.Add(stored, have); err != nil {
		t.Fatal(err)
	}
	c2.Seal()
	status, _ := c2.Status("x")
	if status.Done != 1 || status.Complete {
		t.Fatalf("resumed status = %+v, want 1/3 done", status)
	}
	for want := 1; want <= 2; want++ {
		ls, err := c2.Lease(LeaseRequest{Worker: "w"})
		if err != nil || ls.Status != StatusLease || ls.Index != want {
			t.Fatalf("resumed lease = (%+v, %v), want point %d", ls, err, want)
		}
		if err := c2.PostResult(ResultRequest{Worker: "w", Name: "x", Index: ls.Index, Result: fakeResult(ls.Index)}); err != nil {
			t.Fatal(err)
		}
	}
	if !c2.Complete() {
		t.Fatal("coordinator not complete after resume finished the points")
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := journalLines(t, st, "x"); len(lines) != 3 {
		t.Fatalf("journal holds %d lines, want exactly 3: %v", len(lines), lines)
	}
	have, err = st.LoadPoints("x")
	if err != nil || len(have) != 3 {
		t.Fatalf("final journal = (%v, %v), want 3 points", have, err)
	}
}

// TestLeaseCap pins the outstanding-lease cap: the coordinator refuses
// further leases once MaxLeases are out, and frees capacity as results
// land or leases expire.
func TestLeaseCap(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := New(Config{LeaseTTL: time.Second, MaxLeases: 2, Clock: clock.Now})
	if err := c.Add(testManifest(t, "x", 5), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if ls, err := c.Lease(LeaseRequest{Worker: "w"}); err != nil || ls.Status != StatusLease {
			t.Fatalf("lease %d = (%+v, %v), want granted", i, ls, err)
		}
	}
	if ls, err := c.Lease(LeaseRequest{Worker: "w"}); err != nil || ls.Status != StatusWait {
		t.Fatalf("lease over cap = (%+v, %v), want wait", ls, err)
	}
	if err := c.PostResult(ResultRequest{Worker: "w", Name: "x", Index: 0, Result: fakeResult(0)}); err != nil {
		t.Fatal(err)
	}
	if ls, err := c.Lease(LeaseRequest{Worker: "w"}); err != nil || ls.Status != StatusLease {
		t.Fatalf("lease after post = (%+v, %v), want granted", ls, err)
	}
	// Cap reached again; expiry frees it too.
	clock.Advance(2 * time.Second)
	if ls, err := c.Lease(LeaseRequest{Worker: "w"}); err != nil || ls.Status != StatusLease {
		t.Fatalf("lease after expiry = (%+v, %v), want granted", ls, err)
	}
}

// TestWorkerDrainsCoordinator runs two real Workers against a served
// manifest of genuine (quick, No-DVFS) simulation points and checks the
// coordinator ends complete with every point posted exactly once.
func TestWorkerDrainsCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, "x", 3)
	if err := st.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	c := New(Config{LeaseTTL: 30 * time.Second, Store: st})
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &Worker{Client: &Client{Base: srv.URL}, ID: "w", Workers: 2, Poll: 20 * time.Millisecond}
			errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !c.Complete() {
		t.Fatal("coordinator incomplete after workers drained it")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := journalLines(t, st, "x"); len(lines) != 3 {
		t.Fatalf("journal holds %d lines, want exactly 3: %v", len(lines), lines)
	}
	have, err := st.LoadPoints("x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := have[i]; !ok {
			t.Errorf("point %d missing from journal", i)
		}
		if have[i].Meta.PointIndex != i {
			t.Errorf("point %d carries index %d", i, have[i].Meta.PointIndex)
		}
	}
}

// TestUnsealedCoordinatorNeverReportsDone pins the incremental-planning
// window: while the serve loop is still Adding manifests, an unscoped
// worker asking for work must be told to wait — not "done" — even if
// everything registered so far is complete; a lease scoped to a
// complete manifest still gets its "done".
func TestUnsealedCoordinatorNeverReportsDone(t *testing.T) {
	c := New(Config{})
	// Nothing registered at all: wait.
	if ls, err := c.Lease(LeaseRequest{Worker: "w"}); err != nil || ls.Status != StatusWait {
		t.Fatalf("lease on empty unsealed coordinator = (%+v, %v), want wait", ls, err)
	}
	m := testManifest(t, "x", 1)
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	ls, err := c.Lease(LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease {
		t.Fatalf("lease = (%+v, %v), want granted", ls, err)
	}
	if err := c.PostResult(ResultRequest{Worker: "w", Name: "x", Index: 0, Result: fakeResult(0)}); err != nil {
		t.Fatal(err)
	}
	// All registered manifests complete, but unsealed: unscoped wait,
	// scoped done.
	if ls, err := c.Lease(LeaseRequest{Worker: "w"}); err != nil || ls.Status != StatusWait {
		t.Fatalf("unscoped lease on complete unsealed coordinator = (%+v, %v), want wait", ls, err)
	}
	if ls, err := c.Lease(LeaseRequest{Worker: "w", Name: "x"}); err != nil || ls.Status != StatusDone {
		t.Fatalf("scoped lease on complete manifest = (%+v, %v), want done", ls, err)
	}
	c.Seal()
	if ls, err := c.Lease(LeaseRequest{Worker: "w"}); err != nil || ls.Status != StatusDone {
		t.Fatalf("unscoped lease after seal = (%+v, %v), want done", ls, err)
	}
}

// TestStalePlanResultRejected pins the plan-identity check: a result
// computed against a different manifest (a coordinator restarted with
// new options between lease and post) is refused instead of journaled,
// while a result echoing the current plan's sum is accepted.
func TestStalePlanResultRejected(t *testing.T) {
	c := New(Config{})
	if err := c.Add(testManifest(t, "x", 2), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	ls, err := c.Lease(LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease {
		t.Fatalf("lease = (%+v, %v), want granted", ls, err)
	}
	if ls.Sum == "" {
		t.Fatal("lease carries no plan sum")
	}
	if err := c.PostResult(ResultRequest{Worker: "w", Name: "x", Index: ls.Index, Sum: "deadbeef", Result: fakeResult(0)}); err == nil {
		t.Fatal("stale-plan result accepted, want rejection")
	}
	if st, _ := c.Status("x"); st.Done != 0 {
		t.Fatalf("stale result was recorded: %+v", st)
	}
	if err := c.PostResult(ResultRequest{Worker: "w", Name: "x", Index: ls.Index, Sum: ls.Sum, Result: fakeResult(0)}); err != nil {
		t.Fatalf("matching-plan result rejected: %v", err)
	}
}
