package sweep

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/nocsim"
	"repro/nocsim/manifest"
)

// TestGenerateStoreMatchesInMemory pins the migration contract of the
// manifest machinery: a persisted, store-backed figure run renders
// byte-identical tables to the plain in-memory path (the zero Executor),
// which is itself the migrated form of the pre-refactor per-figure
// generators.
func TestGenerateStoreMatchesInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	o := Options{Quick: true, Points: 2, Workers: 2}
	direct, err := inMemory(ctx, "period", o)
	if err != nil {
		t.Fatal(err)
	}
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stored, _, err := Generate(ctx, "period", o, Executor{Store: st}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stored, direct) {
		t.Errorf("store-backed tables differ from in-memory tables:\n got %+v\nwant %+v", stored, direct)
	}
	if m, err := st.LoadManifest("period"); err != nil || m == nil {
		t.Errorf("manifest not persisted: (%v, %v)", m, err)
	}
	have, err := st.LoadPoints("period")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := st.LoadManifest("period")
	if len(have) != m.NumPoints() {
		t.Errorf("points file holds %d results for %d points", len(have), m.NumPoints())
	}
}

// TestBundleMatchesNocsimSweep is the cross-layer golden check behind
// the Fig. 7/8/10 migration: the manifest executor (RunManifest) must
// produce exactly the results of running the same resolved grid through
// the public nocsim.Sweep — the sweep layer no longer has measurement
// semantics of its own. (The absolute DMSD numbers re-rolled once in
// this migration when the sequential warm-start chain became a per-point
// equilibrium warm start; this equivalence is the invariant that now
// pins them.)
func TestBundleMatchesNocsimSweep(t *testing.T) {
	m, results := getBaseline(t)
	direct, err := nocsim.Sweep(context.Background(), m.Panels[0].Grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(results) {
		t.Fatalf("nocsim.Sweep returned %d results, manifest run %d", len(direct), len(results))
	}
	for i := range direct {
		if direct[i].Metrics != results[i].Metrics {
			t.Errorf("point %d metrics diverge:\n manifest %+v\n sweep    %+v", i, results[i].Metrics, direct[i].Metrics)
		}
	}
}

// TestResumeFillsOnlyGaps deletes half of a completed manifest's points
// and verifies the resumed run re-executes exactly the missing ones and
// reassembles byte-identical tables.
func TestResumeFillsOnlyGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	o := Options{Quick: true, Points: 2, Workers: 2}
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Generate(ctx, "baseline", o, Executor{Store: st}, 0)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Surgically drop every other recorded point.
	path := st.PointsPath("baseline")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("need >= 2 recorded points to make gaps, have %d", len(lines))
	}
	var kept []string
	for i, l := range lines {
		if i%2 == 0 {
			kept = append(kept, l)
		}
	}
	if err := os.WriteFile(path, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The resumed run must execute only the gaps: afterwards the points
	// file holds the kept lines plus exactly one appended line per gap.
	resumed, _, err := Generate(ctx, "baseline", o, Executor{Store: st, Resume: true}, 0)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Errorf("resumed tables differ from uninterrupted run:\n got %+v\nwant %+v", resumed, full)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	after := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if want := len(lines); len(after) != want {
		t.Errorf("points file has %d lines after resume, want %d (kept %d + gaps %d)",
			len(after), want, len(kept), len(lines)-len(kept))
	}
	for i, l := range kept {
		if after[i] != l {
			t.Errorf("resume rewrote kept line %d", i)
		}
	}

	// Resume under different planning options must refuse rather than mix
	// incompatible points.
	bad := o
	bad.Seed = 99
	if _, _, err := Generate(ctx, "baseline", bad, Executor{Store: st, Resume: true}, 0); err == nil || !strings.Contains(err.Error(), "was planned with") {
		t.Errorf("resume with mismatched options: %v, want the planned-with refusal", err)
	}
}

// TestGenerateLimitAndResume drives the interrupted-run workflow the CI
// smoke test uses: stop after a few points (-max-points), observe the
// incomplete verdict, then resume to completion.
func TestGenerateLimitAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	o := Options{Quick: true, Points: 2, Workers: 2}
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tables, _, err := Generate(ctx, "period", o, Executor{Store: st, Limit: 1}, 0)
	if !errors.Is(err, ErrIncomplete) || tables != nil {
		t.Fatalf("limited run: err=%v tables=%v, want ErrIncomplete and none", err, tables)
	}
	have, err := st.LoadPoints("period")
	if err != nil {
		t.Fatal(err)
	}
	if len(have) != 1 {
		t.Fatalf("limited run recorded %d points, want 1", len(have))
	}
	resumed, _, err := Generate(ctx, "period", o, Executor{Store: st, Resume: true}, 0)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	direct, err := inMemory(ctx, "period", o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, direct) {
		t.Errorf("interrupt+resume tables differ from uninterrupted run")
	}
}

// TestLimitNeedsAStore: a limited run with nowhere to keep its points
// would compute them and throw them away, so it is refused before
// anything is planned.
func TestLimitNeedsAStore(t *testing.T) {
	_, _, err := Generate(context.Background(), "period", Options{Quick: true}, Executor{Limit: 1}, 0)
	if err == nil || !strings.Contains(err.Error(), "-max-points needs -manifest") {
		t.Fatalf("limit without a store: %v, want a refusal", err)
	}
}

// TestNestedFig8PanelsRespectLeafBudget is the acceptance check for the
// depth-aware scheduler on the real workload shape: Fig. 8 sensitivity
// panels planned concurrently, each panel fanning out its own saturation
// probes and calibration below — stacked worker pools that used to admit
// W² in-flight sims. The instrumented high-water mark proves the number
// of concurrently executing simulations never exceeds the leaf budget W.
// (A 3-variant subset of the 12 keeps the test affordable; the panels go
// through the exact planPanels/resolveComparison path planFig8 uses.)
func TestNestedFig8PanelsRespectLeafBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const W = 2
	exp.SetLeafBudget(W)
	defer exp.SetLeafBudget(0)
	exp.ResetLeafPeak()

	o := Options{Quick: true, Points: 2, Workers: 4}
	o.setDefaults()
	labels, mutate := fig8Variants()
	pick := []int{0, 4, 9} // vc2, buf8, mesh4x4: distinct fabric shapes
	subLabels := make([]string, len(pick))
	for i, p := range pick {
		subLabels[i] = labels[p]
	}
	panels, err := o.planPanels(context.Background(), subLabels,
		func(ctx context.Context, i int) (nocsim.Grid, error) {
			base := o.baseScenario()
			mutate[pick[i]](&base.Mesh)
			return o.resolveComparison(ctx, base, nocsim.AllPolicies(), o.nearSaturationLoads)
		})
	if err != nil {
		t.Fatal(err)
	}
	m := &manifest.Manifest{Name: "fig8sub", Quick: true, Points: o.Points, Seed: o.Seed, Panels: panels}
	if _, _, err := manifest.Run(context.Background(), m, o.Workers, nil, nil, 0); err != nil {
		t.Fatal(err)
	}

	inFlight, peak := exp.LeafStats()
	if inFlight != 0 {
		t.Errorf("%d leaf sims still in flight after the run", inFlight)
	}
	if peak > W {
		t.Errorf("leaf peak %d exceeded budget %d: nesting multiplied in-flight sims", peak, W)
	}
	if peak < W {
		t.Errorf("leaf peak %d never reached budget %d: instrumentation saw no overlap", peak, W)
	}
}
