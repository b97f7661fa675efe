package manifest

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/nocsim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// refineParent builds a synthetic but fully resolved coarse manifest:
// one baseline-shaped panel with a pinned calibration, three policies
// and the given loads — everything Refine reads, nothing it doesn't.
func refineParent(loads []float64) *Manifest {
	base := nocsim.Scenario{
		Mesh:    nocsim.DefaultMesh(),
		Pattern: "uniform",
		Seed:    1,
		Calibration: &nocsim.Calibration{
			SaturationRate: 0.40, LambdaMax: 0.36, TargetDelayNs: 120,
		},
	}
	return &Manifest{
		Name: "baseline", Points: len(loads), Seed: 1,
		Panels: []Panel{{
			Label: "uniform",
			Grid:  nocsim.Grid{Base: base, Loads: loads, Policies: nocsim.AllPolicies()},
		}},
	}
}

// refineResults fabricates one result per manifest point with the given
// per-load No-DVFS delay curve; the other policies reuse the same shape
// scaled down so every curve agrees on where the signal is.
func refineResults(m *Manifest, delays []float64, saturated []bool) []nocsim.Result {
	g := m.Panels[0].Grid
	var out []nocsim.Result
	for pol := range g.Policies {
		for li, load := range g.Loads {
			r := nocsim.Result{Scenario: g.Base}
			r.Scenario.Load = load
			r.Scenario.Policy = g.Policies[pol]
			r.AvgDelayNs = delays[li] / float64(pol+1)
			r.AvgLatencyCycles = delays[li]
			r.AvgPowerMW = 10 + load*float64(pol+1)
			if saturated != nil {
				r.Saturated = saturated[li]
			}
			out = append(out, r)
		}
	}
	return out
}

// kneeDelays is a hockey-stick delay curve: flat at 50 ns until the last
// two samples, where it doubles and then blows up.
func kneeDelays(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 50 + float64(i)
	}
	if n >= 2 {
		d[n-2] = 120
		d[n-1] = 400
	}
	return d
}

func TestRefineDeterministicGolden(t *testing.T) {
	parent := refineParent([]float64{0.09, 0.18, 0.27, 0.36})
	results := refineResults(parent, kneeDelays(4), nil)

	child1, err := Refine(parent, results, 9)
	if err != nil {
		t.Fatal(err)
	}
	if child1 == nil {
		t.Fatal("expected a refinement manifest for a kneeing curve")
	}
	child2, err := Refine(parent, results, 9)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.MarshalIndent(child1, "", "  ")
	b2, _ := json.MarshalIndent(child2, "", "  ")
	if !bytes.Equal(b1, b2) {
		t.Fatal("two Refine calls over the same inputs emitted different manifests")
	}

	wantName, err := RefineName(parent)
	if err != nil {
		t.Fatal(err)
	}
	if child1.Name != wantName {
		t.Fatalf("child name %q, want %q", child1.Name, wantName)
	}

	golden := filepath.Join("testdata", "refine_child.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, append(b1, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(b1, '\n'), want) {
		t.Errorf("refinement manifest differs from golden (re-run with -update if the change is intended)\ngot:\n%s", b1)
	}
}

func TestRefineBudgetCapsAddedPoints(t *testing.T) {
	parent := refineParent([]float64{0.06, 0.12, 0.18, 0.24, 0.30, 0.36})
	results := refineResults(parent, kneeDelays(6), nil)

	for _, budget := range []int{3, 6, 100} {
		child, err := Refine(parent, results, budget)
		if err != nil {
			t.Fatal(err)
		}
		if child == nil {
			t.Fatalf("budget %d: no refinement", budget)
		}
		if n := child.NumPoints(); n > budget {
			t.Errorf("budget %d: child has %d points", budget, n)
		}
	}
	// A budget below one load's cost (3 policies) buys nothing.
	child, err := Refine(parent, results, 2)
	if err != nil {
		t.Fatal(err)
	}
	if child != nil {
		t.Errorf("budget 2 (< one load x 3 policies) still added %d points", child.NumPoints())
	}
	if _, err := Refine(parent, results, 0); err == nil {
		t.Error("non-positive budget accepted")
	}
}

func TestRefineFlatCurveAddsNothing(t *testing.T) {
	parent := refineParent([]float64{0.09, 0.18, 0.27, 0.36})
	flat := []float64{100, 100.5, 101, 101.5} // < flatRelRange end to end
	child, err := Refine(parent, refineResults(parent, flat, nil), 100)
	if err != nil {
		t.Fatal(err)
	}
	if child != nil {
		t.Fatalf("flat curves produced a refinement manifest: %+v", child)
	}
}

func TestRefineBracketsKnee(t *testing.T) {
	loads := []float64{0.09, 0.18, 0.27, 0.36}
	parent := refineParent(loads)
	results := refineResults(parent, kneeDelays(4), nil)
	child, err := Refine(parent, results, 6) // two loads' worth
	if err != nil {
		t.Fatal(err)
	}
	if child == nil {
		t.Fatal("no refinement")
	}
	got := child.Panels[0].Grid.Loads
	// kneeDelays(4) doubles at index 2, so the knee-entry interval is
	// [0.18, 0.27] and the exit interval [0.27, 0.36]: their midpoints
	// must be the two refinement loads.
	want := []float64{(0.18 + 0.27) / 2, (0.27 + 0.36) / 2}
	if len(got) != len(want) {
		t.Fatalf("refinement loads %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refinement loads %v, want %v", got, want)
		}
	}
	// The saturation guard alone (no delay doubling) must also pull
	// refinement toward the knee.
	gentle := []float64{50, 55, 60, 65}
	sat := []bool{false, false, false, true}
	child, err = Refine(parent, refineResults(parent, gentle, sat), 3)
	if err != nil {
		t.Fatal(err)
	}
	if child == nil {
		t.Fatal("saturated tail produced no refinement")
	}
	if got := child.Panels[0].Grid.Loads; len(got) != 1 || got[0] != (0.27+0.36)/2 {
		t.Fatalf("refinement loads %v, want the saturated interval's midpoint", got)
	}
}

// TestMergeRefinedEmptyChildIsByteIdentical: a nil or point-free child
// hands back the parent's own manifest and results, so a run whose
// refinement found nothing renders exactly what a plain run renders.
func TestMergeRefinedEmptyChildIsByteIdentical(t *testing.T) {
	parent := refineParent([]float64{0.09, 0.18, 0.27, 0.36})
	results := refineResults(parent, kneeDelays(4), nil)
	want, err := json.Marshal(struct {
		M *Manifest
		R []nocsim.Result
	}{parent, results})
	if err != nil {
		t.Fatal(err)
	}
	for _, child := range []*Manifest{nil, {Name: "baseline-refine-empty"}} {
		m2, r2, err := MergeRefined(parent, results, child, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(struct {
			M *Manifest
			R []nocsim.Result
		}{m2, r2})
		if err != nil {
			t.Fatal(err)
		}
		if m2 != parent || !bytes.Equal(got, want) {
			t.Errorf("merging child %+v changed the parent's plan or results", child)
		}
	}
}

func TestMergeRefinedSortedAndDuplicateFree(t *testing.T) {
	parent := refineParent([]float64{0.09, 0.18, 0.27, 0.36})
	presults := refineResults(parent, kneeDelays(4), nil)

	// A child that interleaves new loads AND repeats an existing one
	// (0.18): the duplicate must collapse onto the parent's sample.
	child := refineParent(nil)
	child.Name = "baseline-refine-test"
	child.Panels[0].Grid.Loads = []float64{0.135, 0.18, 0.315}
	cresults := refineResults(child, []float64{70, 9999, 200}, nil)

	merged, mres, err := MergeRefined(parent, presults, child, cresults)
	if err != nil {
		t.Fatal(err)
	}
	loads := merged.Panels[0].Grid.Loads
	want := []float64{0.09, 0.135, 0.18, 0.27, 0.315, 0.36}
	if len(loads) != len(want) {
		t.Fatalf("merged loads %v, want %v", loads, want)
	}
	for i := range want {
		if loads[i] != want[i] {
			t.Fatalf("merged loads %v, want %v", loads, want)
		}
		if loads[i] <= 0 || (i > 0 && loads[i] <= loads[i-1]) {
			t.Fatalf("merged loads not strictly increasing: %v", loads)
		}
	}
	if n := merged.NumPoints(); n != len(mres) {
		t.Fatalf("%d merged results for %d points", len(mres), n)
	}
	// Every merged result must sit at its own load, in point order
	// (policies outer, loads inner) — and the duplicated 0.18 must carry
	// the parent's delay (51 for nodvfs), not the child's 9999 marker.
	g := merged.Panels[0].Grid
	for i, r := range mres {
		if want := g.Loads[i%len(g.Loads)]; r.Scenario.Load != want {
			t.Fatalf("merged result %d at load %v, want %v", i, r.Scenario.Load, want)
		}
	}
	if d := mres[2].AvgDelayNs; d != 51 {
		t.Fatalf("duplicate load kept delay %v, want the parent's 51", d)
	}

	// A child panel the parent doesn't have must be refused.
	stray := refineParent([]float64{0.1})
	stray.Panels[0].Label = "no-such-panel"
	if _, _, err := MergeRefined(parent, presults, stray, refineResults(stray, []float64{1}, nil)); err == nil {
		t.Error("child with an unknown panel accepted")
	}
}
