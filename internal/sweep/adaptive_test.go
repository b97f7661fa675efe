package sweep

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/nocsim"
	"repro/nocsim/manifest"
)

// formatAll renders tables to one byte stream for equality checks.
func formatAll(t *testing.T, tables []Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range tables {
		if err := tables[i].Format(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestGenerateAdaptiveLocal runs the whole two-phase flow against a real
// (quick) simulation: coarse pass, refinement, merged render — then the
// same run again with -resume, which must replay entirely from the
// journals and render byte-identical tables.
func TestGenerateAdaptiveLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	st, err := manifest.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Points: 3, Seed: 1}
	ctx := context.Background()

	tables, stats, err := Generate(ctx, "baseline", o, Executor{Store: st}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables rendered")
	}
	if stats.CoarsePoints != 9 { // 3 loads x 3 policies
		t.Fatalf("coarse points = %d, want 9", stats.CoarsePoints)
	}
	if stats.RefinedPoints > 6 {
		t.Fatalf("refinement spent %d points, budget was 6", stats.RefinedPoints)
	}
	if stats.ChildName != "" {
		if m, err := st.LoadManifest(stats.ChildName); err != nil || m == nil {
			t.Fatalf("child manifest %q not persisted: (%v, %v)", stats.ChildName, m, err)
		}
	}

	again, stats2, err := Generate(ctx, "baseline", o, Executor{Store: st, Resume: true}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ChildName != stats.ChildName || stats2.Total() != stats.Total() {
		t.Fatalf("resumed stats %+v differ from first run %+v", stats2, stats)
	}
	if !bytes.Equal(formatAll(t, tables), formatAll(t, again)) {
		t.Fatal("resumed adaptive run rendered different tables")
	}
}

// TestSubmitReusesOnlyTheSamePlan pins which journaled child points a
// local run may pick up: those of the identical plan, and only when
// resuming. A stored child of the same name refined from other coarse
// results is stale — its journal is truncated, not merged.
func TestSubmitReusesOnlyTheSamePlan(t *testing.T) {
	ctx := context.Background()
	child := refineParent([]float64{0.10, 0.20})
	child.Name = "baseline-refine-test"
	stale := refineParent([]float64{0.15, 0.25})
	stale.Name = child.Name

	journaled := func(t *testing.T, m *manifest.Manifest) *manifest.DirStore {
		t.Helper()
		st, err := manifest.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveManifest(m); err != nil {
			t.Fatal(err)
		}
		j, err := st.Journal(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(0, nocsim.Result{}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, tc := range []struct {
		name   string
		stored *manifest.Manifest
		resume bool
		want   int // journaled points handed back, and left in the store
	}{
		{"same plan, resuming", child, true, 1},
		{"same plan, fresh run", child, false, 0},
		{"stale plan, resuming", stale, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := journaled(t, tc.stored)
			have, err := Executor{Store: st, Resume: tc.resume}.submit(ctx, child)
			if err != nil {
				t.Fatal(err)
			}
			if len(have) != tc.want {
				t.Errorf("Submit handed back %d journaled points, want %d", len(have), tc.want)
			}
			kept, err := st.LoadPoints(child.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(kept) != tc.want {
				t.Errorf("%d points left in the store, want %d", len(kept), tc.want)
			}
			now, err := st.LoadManifest(child.Name)
			if err != nil {
				t.Fatal(err)
			}
			gotSum, _ := manifest.Sum(now)
			wantSum, _ := manifest.Sum(child)
			if gotSum != wantSum {
				t.Error("the store does not hold the submitted plan")
			}
		})
	}
	if have, err := (Executor{}).submit(ctx, child); err != nil || have != nil {
		t.Errorf("Submit without a store = (%v, %v), want nothing", have, err)
	}
}

// serveFigure plans fig in-process and serves it from a sealed in-memory
// coordinator, as cmd/nocsimd does once its planning finishes. dropLease,
// when non-nil, sees each lease request arrive and may have it refused.
func serveFigure(t *testing.T, fig string, o Options, dropLease func() bool) (*queue.Coordinator, *queue.Client) {
	t.Helper()
	m, _, err := Executor{}.Open(context.Background(), fig, o)
	if err != nil {
		t.Fatal(err)
	}
	coord := queue.New(queue.Config{})
	if err := coord.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	coord.Seal()
	handler := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dropLease != nil && r.URL.Path == "/v1/lease" && dropLease() {
			http.Error(w, "lease dropped by the test", http.StatusServiceUnavailable)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return coord, &queue.Client{Base: srv.URL}
}

// TestAdaptiveRemoteFollowOn proves the remote flow matches the local
// one byte for byte: the client registers the refinement expectation,
// drains the coarse pass, posts the follow-on manifest to the live
// coordinator, drains it, and renders exactly what the same Generate
// renders in-process.
func TestAdaptiveRemoteFollowOn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	o := Options{Quick: true, Points: 2, Seed: 1}
	ctx := context.Background()

	local, localStats, err := Generate(ctx, "baseline", o, Executor{}, 6)
	if err != nil {
		t.Fatal(err)
	}

	coord, client := serveFigure(t, "baseline", o, nil)
	remote, remoteStats, err := Generate(ctx, "baseline", o, Executor{Client: client}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if remoteStats.ChildName != localStats.ChildName || remoteStats.Total() != localStats.Total() {
		t.Fatalf("remote stats %+v differ from local %+v", remoteStats, localStats)
	}
	if !bytes.Equal(formatAll(t, local), formatAll(t, remote)) {
		t.Fatal("remote adaptive tables differ from local")
	}
	// No expectation may be left behind: a fleet running -exit-when-done
	// must see the run as complete.
	if !coord.Complete() {
		t.Fatal("coordinator not complete after the adaptive run")
	}
}

// TestAdaptiveRemoteReleasesTheFleet covers the two ways a remote
// adaptive run ends without posting a refinement — it is interrupted
// during the coarse pass, or refinement finds nothing to add. Either
// way the expectation it registered must be withdrawn, or a coordinator
// running with -exit-when-done, and every unscoped worker attached to
// it, would wait forever for a manifest nobody will send. The PI
// transient is the figure: one point, and a single-load panel has no
// axis to refine.
func TestAdaptiveRemoteReleasesTheFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	o := Options{Quick: true, Seed: 1}
	want, err := inMemory(context.Background(), "pi", o)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("cancelled during the coarse pass", func(t *testing.T) {
		// Cancelled as its first lease request arrives: after the
		// expectation is registered, before a point is leased (one lease
		// loop, so no second request is in flight to be granted).
		o := o
		o.Workers = 1
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var first sync.Once
		coord, client := serveFigure(t, "pi", o, func() (drop bool) {
			first.Do(func() { cancel(); drop = true })
			return drop
		})
		_, _, err := Generate(ctx, "pi", o, Executor{Client: client}, 6)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: %v, want context.Canceled", err)
		}
		if coord.Complete() {
			t.Fatal("the cancelled run computed the coarse pass anyway")
		}
		// An unscoped worker is told "done" only once nothing is expected.
		wctx, stop := context.WithTimeout(context.Background(), time.Minute)
		defer stop()
		w := &queue.Worker{Client: client, Workers: 1, Poll: 10 * time.Millisecond}
		if err := w.Run(wctx); err != nil {
			t.Fatalf("worker after the cancelled run: %v", err)
		}
		if !coord.Complete() {
			t.Fatal("an expectation outlived the cancelled run")
		}
	})

	t.Run("refinement finds nothing", func(t *testing.T) {
		coord, client := serveFigure(t, "pi", o, nil)
		tables, stats, err := Generate(context.Background(), "pi", o, Executor{Client: client}, 6)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ChildName != "" || stats.RefinedPoints != 0 || stats.Total() != 1 {
			t.Fatalf("stats %+v, want the one coarse point and no refinement", stats)
		}
		if !bytes.Equal(formatAll(t, tables), formatAll(t, want)) {
			t.Fatal("an adaptive run that refined nothing differs from a plain run")
		}
		if !coord.Complete() {
			t.Fatal("an expectation outlived a run that refined nothing")
		}
	})
}
