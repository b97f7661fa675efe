package sweep

import (
	"context"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/nocsim/manifest"
)

// TestCoordinatorMatchesInProcess is the acceptance test of the
// distributed runner: the same figure computed through a coordinator and
// several workers — one of which leases a point and dies, forcing an
// expiry and re-issue — renders tables byte-identical to the in-process
// manifest run, and the coordinator's journal holds every point exactly
// once.
func TestCoordinatorMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	o := Options{Quick: true, Points: 2, Workers: 2}

	// Reference: the plain in-process path (plan + manifest.Run + render).
	direct, err := inMemory(ctx, "period", o)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	// Distributed: a journaling coordinator over the same (deterministic)
	// plan, plus workers.
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, have, err := Executor{Store: st}.Open(ctx, "period", o)
	if err != nil {
		t.Fatal(err)
	}
	coord := queue.New(queue.Config{LeaseTTL: 300 * time.Millisecond, Store: st})
	if err := coord.Add(m, have); err != nil {
		t.Fatal(err)
	}
	// As cmd/nocsimd does once planning finishes: without sealing,
	// unscoped workers would treat "all registered manifests complete"
	// as "more planning coming" and wait instead of exiting.
	coord.Seal()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &queue.Client{Base: srv.URL}

	// A worker leases the first point and dies without posting: its lease
	// must expire and the point be recomputed by someone else.
	dead, err := client.Lease(ctx, queue.LeaseRequest{Worker: "dead", Name: "period"})
	if err != nil {
		t.Fatal(err)
	}
	if dead.Status != queue.StatusLease {
		t.Fatalf("dead worker's lease = %+v, want a granted point", dead)
	}

	// Two detached workers (as cmd/nocsimd -worker would attach)...
	wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for i := range werrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &queue.Worker{Client: client, Workers: 1, Poll: 20 * time.Millisecond}
			werrs[i] = w.Run(wctx)
		}()
	}
	// ...plus this process joining through the same path cmd/figures
	// -coordinator uses, which also reassembles the tables.
	remote, _, err := Generate(ctx, "period", o, Executor{Client: client})
	if err != nil {
		t.Fatalf("Generate through the coordinator: %v", err)
	}
	wg.Wait()
	for i, err := range werrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	if !reflect.DeepEqual(remote, direct) {
		t.Errorf("distributed tables differ from in-process run:\n got %+v\nwant %+v", remote, direct)
	}

	// Exactly-once journal: one line per manifest point, the dead
	// worker's abandoned point included.
	data, err := os.ReadFile(st.PointsPath("period"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != m.NumPoints() {
		t.Errorf("journal holds %d lines for %d points", len(lines), m.NumPoints())
	}
	final, err := st.LoadPoints("period")
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != m.NumPoints() {
		t.Errorf("journal holds %d distinct points, want %d", len(final), m.NumPoints())
	}
	if _, ok := final[dead.Index]; !ok {
		t.Errorf("abandoned point %d never made it into the journal", dead.Index)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}
