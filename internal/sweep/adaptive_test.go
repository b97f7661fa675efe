package sweep

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
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
	o := Options{Quick: true, Points: 3, Seed: 1, RefineBudget: 6}
	ctx := context.Background()

	tables, stats, err := Generate(ctx, "baseline", o, Executor{Store: st})
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

	again, stats2, err := Generate(ctx, "baseline", o, Executor{Store: st, Resume: true})
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

// childPlan is a resolved refinement-shaped manifest over the given
// loads; nothing runs it.
func childPlan(loads []float64) *manifest.Manifest {
	base := nocsim.Scenario{Mesh: nocsim.DefaultMesh(), Pattern: "uniform", Seed: 1}
	base.Calibration = &nocsim.Calibration{SaturationRate: 0.40, LambdaMax: 0.36, TargetDelayNs: 120}
	return &manifest.Manifest{
		Name: "baseline-refine-test", Points: 2, Seed: 1,
		Panels: []manifest.Panel{{
			Label: "uniform",
			Grid:  nocsim.Grid{Base: base, Loads: loads, Policies: nocsim.AllPolicies()},
		}},
	}
}

// TestResumeRefusesOtherBudget: the refinement budget is part of the
// plan. A manifest stored without one (a fixed grid, or an adaptive run
// from before the budget was recorded) decodes as budget 0, and resuming
// it as an adaptive run is refused with both budgets named — its points
// would otherwise join a plan they were not computed for.
func TestResumeRefusesOtherBudget(t *testing.T) {
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := `{"name":"baseline","quick":true,"points":3,"seed":1,"panels":[]}`
	if err := os.WriteFile(st.ManifestPath("baseline"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := st.LoadManifest("baseline"); err != nil || m.RefineBudget != 0 {
		t.Fatalf("manifest without refine_budget decoded as (%+v, %v), want budget 0", m, err)
	}
	o := Options{Quick: true, Points: 3, Seed: 1, RefineBudget: 6}
	_, _, err = Generate(context.Background(), "baseline", o, Executor{Store: st, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "refine-budget=0") || !strings.Contains(err.Error(), "refine-budget=6") {
		t.Fatalf("resuming a budget-0 manifest with budget 6: %v, want a refusal naming both budgets", err)
	}
}

// TestSubmitReusesOnlyTheSamePlan pins which journaled child points a
// local run may pick up: those of the identical plan, and only when
// resuming. A stored child of the same name refined from other coarse
// results is stale — its journal is truncated, not merged.
func TestSubmitReusesOnlyTheSamePlan(t *testing.T) {
	child := childPlan([]float64{0.10, 0.20})
	stale := childPlan([]float64{0.15, 0.25})

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
			have, err := Executor{Store: st, Resume: tc.resume}.submit(child)
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
	if have, err := (Executor{}).submit(child); err != nil || have != nil {
		t.Errorf("Submit without a store = (%v, %v), want nothing", have, err)
	}
}

// handlerTransport serves a client's requests straight from a handler,
// in memory: no sockets.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
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
	serve := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dropLease != nil && r.URL.Path == "/v1/lease" && dropLease() {
			http.Error(w, "lease dropped by the test", http.StatusServiceUnavailable)
			return
		}
		handler.ServeHTTP(w, r)
	})
	return coord, &queue.Client{Base: "http://coordinator", HTTP: &http.Client{Transport: handlerTransport{serve}}}
}

// drain runs one unscoped worker, as cmd/nocsimd -worker attaches, until
// the coordinator reports all work done.
func drain(t *testing.T, client *queue.Client) {
	t.Helper()
	ctx, stop := context.WithTimeout(context.Background(), 2*time.Minute)
	defer stop()
	w := &queue.Worker{Client: client, Workers: 2, Poll: 10 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("unscoped worker: %v", err)
	}
}

// TestAdaptiveRemoteFollowOn proves the remote flow matches the local
// one byte for byte, whoever computes the points. With no client ever
// attached, one unscoped worker drains the coarse pass and the
// refinement the coordinator derives from it, and the coordinator
// completes; a client arriving afterwards renders from the journal. A
// client alone drains both passes as a scoped worker. Both render
// exactly what the same Generate renders in-process.
func TestAdaptiveRemoteFollowOn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	o := Options{Quick: true, Points: 2, Seed: 1, RefineBudget: 6}
	ctx := context.Background()

	local, localStats, err := Generate(ctx, "baseline", o, Executor{})
	if err != nil {
		t.Fatal(err)
	}
	if localStats.ChildName == "" {
		t.Fatal("the local run refined nothing: no follow-on to exercise")
	}

	t.Run("worker alone, then a client", func(t *testing.T) {
		coord, client := serveFigure(t, "baseline", o, nil)
		drain(t, client)
		if !coord.Complete() {
			t.Fatal("coordinator not complete after the worker drained it")
		}
		if names := coord.Names(); len(names) != 2 || names[1] != localStats.ChildName {
			t.Fatalf("coordinator serves %v, want [baseline %s]", names, localStats.ChildName)
		}
		remote, remoteStats, err := Generate(ctx, "baseline", o, Executor{Client: client})
		if err != nil {
			t.Fatal(err)
		}
		if *remoteStats != *localStats {
			t.Fatalf("remote stats %+v differ from local %+v", remoteStats, localStats)
		}
		if !bytes.Equal(formatAll(t, local), formatAll(t, remote)) {
			t.Fatal("remote adaptive tables differ from local")
		}
	})

	t.Run("client alone", func(t *testing.T) {
		coord, client := serveFigure(t, "baseline", o, nil)
		remote, remoteStats, err := Generate(ctx, "baseline", o, Executor{Client: client})
		if err != nil {
			t.Fatal(err)
		}
		if *remoteStats != *localStats {
			t.Fatalf("remote stats %+v differ from local %+v", remoteStats, localStats)
		}
		if !bytes.Equal(formatAll(t, local), formatAll(t, remote)) {
			t.Fatal("remote adaptive tables differ from local")
		}
		if !coord.Complete() {
			t.Fatal("coordinator not complete after the adaptive run")
		}
	})

	t.Run("client without the coordinator's budget", func(t *testing.T) {
		_, client := serveFigure(t, "baseline", o, nil)
		fixed := o
		fixed.RefineBudget = 0
		if _, _, err := Generate(ctx, "baseline", fixed, Executor{Client: client}); err == nil || !strings.Contains(err.Error(), "refine-budget=6") {
			t.Fatalf("fixed-grid client of an adaptive coordinator: %v, want a refusal naming its budget", err)
		}
	})
}

// TestAdaptiveRemoteReleasesTheFleet covers the two ways a remote
// adaptive run ends without a refinement — the client is interrupted
// during the coarse pass, or refinement finds nothing to add. Either
// way nothing is left for the fleet to wait on: a coordinator running
// with -exit-when-done, and every unscoped worker attached to it, sees
// the run complete. The PI transient is the figure: one point, and a
// single-load panel has no axis to refine.
func TestAdaptiveRemoteReleasesTheFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	o := Options{Quick: true, Seed: 1, RefineBudget: 6}
	plain := o
	plain.RefineBudget = 0
	want, err := inMemory(context.Background(), "pi", plain)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("cancelled during the coarse pass", func(t *testing.T) {
		// Cancelled as its first lease request arrives, before a point is
		// leased (one lease loop, so no second request is in flight to be
		// granted).
		o := o
		o.Workers = 1
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var first sync.Once
		coord, client := serveFigure(t, "pi", o, func() (drop bool) {
			first.Do(func() { cancel(); drop = true })
			return drop
		})
		_, _, err := Generate(ctx, "pi", o, Executor{Client: client})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: %v, want context.Canceled", err)
		}
		if coord.Complete() {
			t.Fatal("the cancelled run computed the coarse pass anyway")
		}
		drain(t, client)
		if !coord.Complete() || len(coord.Names()) != 1 {
			t.Fatalf("after the worker: complete=%v serving %v, want complete with no refinement", coord.Complete(), coord.Names())
		}
	})

	t.Run("refinement finds nothing", func(t *testing.T) {
		coord, client := serveFigure(t, "pi", o, nil)
		tables, stats, err := Generate(context.Background(), "pi", o, Executor{Client: client})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ChildName != "" || stats.RefinedPoints != 0 || stats.Total() != 1 {
			t.Fatalf("stats %+v, want the one coarse point and no refinement", stats)
		}
		if !bytes.Equal(formatAll(t, tables), formatAll(t, want)) {
			t.Fatal("an adaptive run that refined nothing differs from a plain run")
		}
		if !coord.Complete() || len(coord.Names()) != 1 {
			t.Fatalf("complete=%v serving %v, want complete with no refinement registered", coord.Complete(), coord.Names())
		}
	})
}
