package nocsim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// exampleScenarios mirrors every scenario shape the examples and the
// sweep harness construct: the baseline, each synthetic pattern, each
// sensitivity variant, and both multimedia workloads.
func exampleScenarios(t *testing.T) map[string]Scenario {
	t.Helper()
	cal := Calibration{SaturationRate: 0.42, LambdaMax: 0.378, TargetDelayNs: 150}
	set := map[string][]Option{
		"baseline":     {WithPattern("uniform"), WithLoad(0.2), WithQuick()},
		"rmsd":         {WithPattern("uniform"), WithLoad(0.2), WithPolicy(RMSD), WithCalibration(cal), WithQuick()},
		"dmsd":         {WithPattern("uniform"), WithLoad(0.2), WithPolicy(DMSD), WithCalibration(cal), WithQuick()},
		"tornado":      {WithPattern("tornado"), WithLoad(0.15), WithQuick()},
		"bitcomp":      {WithPattern("bitcomp"), WithLoad(0.15), WithQuick()},
		"transpose":    {WithPattern("transpose"), WithLoad(0.1), WithQuick()},
		"neighbor":     {WithPattern("neighbor"), WithLoad(0.3), WithQuick()},
		"vc2":          {WithPattern("uniform"), WithVCs(2), WithLoad(0.15), WithQuick()},
		"buf8":         {WithPattern("uniform"), WithBuffers(8), WithLoad(0.2), WithQuick()},
		"pkt10":        {WithPattern("uniform"), WithPacketSize(10), WithLoad(0.2), WithQuick()},
		"mesh4x4":      {WithPattern("uniform"), WithMesh(4, 4), WithLoad(0.2), WithQuick()},
		"mesh8x8":      {WithPattern("uniform"), WithMesh(8, 8), WithLoad(0.2), WithQuick()},
		"yx":           {WithPattern("uniform"), WithRouting(RoutingYX), WithLoad(0.2), WithQuick()},
		"o1turn":       {WithPattern("uniform"), WithRouting(RoutingO1Turn), WithLoad(0.2), WithQuick()},
		"h264":         {WithApp("h264"), WithLoad(0.5), WithQuick()},
		"vce":          {WithApp("vce"), WithLoad(0.75), WithQuick()},
		"seeded":       {WithPattern("uniform"), WithLoad(0.2), WithSeed(77), WithWorkers(3), WithQuick()},
		"slow-clock":   {WithPattern("uniform"), WithLoad(0.2), WithNodeClock(8e8), WithQuick()},
		"narrow-range": {WithPattern("uniform"), WithLoad(0.2), WithFreqRange(5e8, 1e9), WithQuick()},
		"mmpp":         {WithPattern("uniform"), WithLoad(0.2), WithMMPP(4, 64), WithQuick()},
		"pareto":       {WithPattern("uniform"), WithLoad(0.15), WithParetoOnOff(3, 32, 1.5), WithQuick()},
		"trace":        {WithTrace("testdata/trace.golden.json"), WithMesh(3, 3), WithQuick()},
		"faulty":       {WithPattern("uniform"), WithLoad(0.1), WithFaultyLinks("6>7", "7>6"), WithQuick()},
		"islands":      {WithPattern("uniform"), WithLoad(0.1), WithIslands(Island{X0: 0, Y0: 0, X1: 1, Y1: 1, Speed: 0.5}), WithQuick()},
		"mesh6x3":      {WithPattern("uniform"), WithMesh(6, 3), WithLoad(0.2), WithQuick()},
	}
	out := make(map[string]Scenario, len(set))
	for name, opts := range set {
		s, err := New(opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = s
	}
	return out
}

// TestScenarioJSONRoundTrip is the wire-form contract: every scenario
// the examples and sweeps construct survives Marshal → Unmarshal exactly,
// and re-marshalling the recovered value reproduces the same bytes.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for name, s := range exampleScenarios(t) {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: round trip changed the scenario:\nbefore %+v\nafter  %+v", name, s, back)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if string(data) != string(again) {
			t.Errorf("%s: re-marshal differs:\n%s\n%s", name, data, again)
		}
		if err := back.Validate(); err != nil {
			t.Errorf("%s: recovered scenario invalid: %v", name, err)
		}
	}
}

// TestScenarioGoldenJSON pins the wire form: an encoding change (field
// renamed, tag touched, default moved) must show up as a golden diff, not
// as a silent incompatibility between fleet members.
func TestScenarioGoldenJSON(t *testing.T) {
	s := MustNew(
		WithPattern("uniform"),
		WithLoad(0.2),
		WithPolicy(DMSD),
		WithCalibration(Calibration{SaturationRate: 0.42, LambdaMax: 0.378, TargetDelayNs: 150}),
		WithSeed(7),
		WithQuick(),
	)
	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "scenario.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("wire form drifted from %s (run with UPDATE_GOLDEN=1 to regenerate):\ngot:\n%swant:\n%s",
			golden, got, want)
	}
}

// TestScenarioDiversityGoldenJSON pins the wire form of the scenario-
// diversity fields (source, faulty links, islands, trace references) the
// same way the baseline golden pins the original fields.
func TestScenarioDiversityGoldenJSON(t *testing.T) {
	s := MustNew(
		WithPattern("uniform"),
		WithLoad(0.2),
		WithMMPP(4, 64),
		WithFaultyLinks("6>7", "7>6"),
		WithIslands(Island{X0: 0, Y0: 0, X1: 1, Y1: 4, Speed: 0.5}),
		WithSeed(7),
		WithQuick(),
	)
	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "diversity.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("wire form drifted from %s (run with UPDATE_GOLDEN=1 to regenerate):\ngot:\n%swant:\n%s",
			golden, got, want)
	}
}

// TestOldManifestStillDecodes: a manifest written before the scenario-
// diversity fields existed (the baseline golden file) must decode,
// normalize and validate unchanged, with every new field at its zero
// value — the backward-compatibility contract for stored manifests and
// fleet jobs. The same file carrying the retired "step_workers" key — as
// a scenario, a grid base and a result with the key in its meta too —
// must decode to exactly the scenario it decodes to without it.
func TestOldManifestStillDecodes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "scenario.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("old manifest no longer decodes: %v", err)
	}
	if s.TraceRef != "" || s.Source != nil || len(s.FaultyLinks) != 0 || len(s.Islands) != 0 {
		t.Errorf("old manifest grew diversity fields: %+v", s)
	}
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		t.Errorf("old manifest invalid after normalization: %v", err)
	}
	if n.Pattern != "uniform" || n.Policy != DMSD {
		t.Errorf("old manifest lost its settings: pattern %q policy %q", n.Pattern, n.Policy)
	}

	withKey := strings.Replace(string(data), `"seed": 7,`, `"seed": 7, "step_workers": 4,`, 1)
	if withKey == string(data) {
		t.Fatal("golden file has no seed line to splice step_workers after")
	}
	var sk Scenario
	var gk Grid
	var rk Result
	for _, in := range []struct {
		doc string
		v   any
	}{
		{withKey, &sk},
		{`{"base":` + withKey + `,"loads":[0.1]}`, &gk},
		{`{"scenario":` + withKey + `,"meta":{"seed":7,"step_workers":4}}`, &rk},
	} {
		if err := json.Unmarshal([]byte(in.doc), in.v); err != nil {
			t.Fatalf("document with step_workers no longer decodes: %v\n%s", err, in.doc)
		}
	}
	for name, got := range map[string]Scenario{"scenario": sk, "grid base": gk.Base, "result": rk.Scenario} {
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s with step_workers decodes to a different scenario:\n got %+v\nwant %+v", name, got, s)
		}
	}
	if rk.Meta.Seed != 7 {
		t.Errorf("result meta lost its seed beside step_workers: %+v", rk.Meta)
	}
}

// TestGridJSONRoundTrip: a Grid — the distributed-sweep job description —
// must survive the wire exactly like a Scenario.
func TestGridJSONRoundTrip(t *testing.T) {
	g := Grid{
		Base:     MustNew(WithPattern("tornado"), WithQuick(), WithSeed(3)),
		Loads:    []float64{0.05, 0.1, 0.15},
		Policies: AllPolicies(),
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Grid
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, back) {
		t.Errorf("grid round trip changed the grid:\nbefore %+v\nafter  %+v", g, back)
	}
	if back.Len() != 9 {
		t.Errorf("recovered grid has %d points, want 9", back.Len())
	}
}

func TestNewValidatesEagerly(t *testing.T) {
	cases := map[string][]Option{
		"unknown pattern":   {WithPattern("zipf")},
		"unknown app":       {WithApp("doom")},
		"unknown policy":    {WithPolicy(PolicyKind("magic"))},
		"negative load":     {WithLoad(-0.1)},
		"zero seed":         {WithSeed(0)},
		"bad mesh":          {WithMesh(0, 5)},
		"bad range":         {WithFreqRange(1e9, 333e6)},
		"rmsd no lambda":    {WithPolicy(RMSD), WithCalibration(Calibration{TargetDelayNs: 100})},
		"dmsd no target":    {WithPolicy(DMSD), WithCalibration(Calibration{LambdaMax: 0.3})},
		"negative workers":  {WithWorkers(-1)},
		"bad routing":       {WithRouting(Routing("zigzag"))},
		"app mesh mismatch": {WithApp("h264"), WithMesh(5, 5)},
		"transpose non-sq":  {WithPattern("transpose"), WithMesh(4, 5)},
		"empty trace ref":   {WithTrace("")},
		"trace + pattern":   {WithTrace("t.json"), WithPattern("uniform")},
		"trace + dvfs":      {WithTrace("t.json"), WithPolicy(RMSD)},
		"trace + source":    {WithPattern("uniform"), WithMMPP(4, 64), WithTrace("t.json"), WithMMPP(4, 64)},
		"source + app":      {WithApp("h264"), WithMMPP(4, 64)},
		"low burst ratio":   {WithPattern("uniform"), WithMMPP(0.5, 64)},
		"short burst":       {WithPattern("uniform"), WithMMPP(4, 0.25)},
		"bad pareto alpha":  {WithPattern("uniform"), WithParetoOnOff(4, 64, 3)},
		"bad fault form":    {WithFaultyLinks("1-2")},
		"fault non-adj":     {WithFaultyLinks("0>7")},
		"fault o1turn":      {WithRouting(RoutingO1Turn), WithFaultyLinks("0>1")},
		"island outside":    {WithIslands(Island{X0: 0, Y0: 0, X1: 9, Y1: 9, Speed: 0.5})},
		"island zero speed": {WithIslands(Island{X1: 1, Y1: 1})},
	}
	for name, opts := range cases {
		if _, err := New(opts...); err == nil {
			t.Errorf("%s: New accepted an invalid scenario", name)
		}
	}
}

func TestWithDoesNotMutateReceiver(t *testing.T) {
	s := MustNew(WithPattern("uniform"), WithLoad(0.2))
	if _, err := s.With(WithLoad(0.4), WithPolicy(RMSD), WithCalibration(Calibration{LambdaMax: 0.3})); err != nil {
		t.Fatal(err)
	}
	if s.Load != 0.2 || s.Policy != NoDVFS || s.Calibration != nil {
		t.Errorf("With mutated its receiver: %+v", s)
	}
}

func TestNormalizedFillsDefaults(t *testing.T) {
	// A minimal hand-written wire scenario gets the documented defaults.
	var s Scenario
	if err := json.Unmarshal([]byte(`{"pattern": "uniform", "load": 0.1}`), &s); err != nil {
		t.Fatal(err)
	}
	n := s.Normalized()
	if n.Mesh != DefaultMesh() || n.Policy != NoDVFS || n.Seed != 1 || n.FNodeHz != 1e9 {
		t.Errorf("Normalized() = %+v", n)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("normalized minimal scenario invalid: %v", err)
	}

	// A partially specified mesh gets the paper's router parameters
	// field by field: a job that only states the dimensions it changed
	// is still complete.
	var p Scenario
	if err := json.Unmarshal([]byte(`{"mesh": {"width": 7, "height": 7}, "pattern": "uniform", "load": 0.2}`), &p); err != nil {
		t.Fatal(err)
	}
	pn := p.Normalized()
	want := DefaultMesh()
	want.Width, want.Height = 7, 7
	if pn.Mesh != want {
		t.Errorf("partial mesh normalized to %+v, want %+v", pn.Mesh, want)
	}
	if err := pn.Validate(); err != nil {
		t.Errorf("partial-mesh scenario invalid after normalization: %v", err)
	}

	// An app-only wire scenario defaults its mesh to the app's mapping,
	// matching WithApp — the distribution story must not require the
	// sender to spell out the mesh.
	var a Scenario
	if err := json.Unmarshal([]byte(`{"app": "h264", "load": 0.5}`), &a); err != nil {
		t.Fatal(err)
	}
	an := a.Normalized()
	if an.Mesh.Width != 4 || an.Mesh.Height != 4 {
		t.Errorf("app scenario normalized to %dx%d mesh, want 4x4", an.Mesh.Width, an.Mesh.Height)
	}
	if err := an.Validate(); err != nil {
		t.Errorf("app-only scenario invalid after normalization: %v", err)
	}

	// A trace scenario must NOT inherit the "uniform" pattern default —
	// trace replay and patterns are mutually exclusive.
	var tr Scenario
	if err := json.Unmarshal([]byte(`{"trace": "t.json"}`), &tr); err != nil {
		t.Fatal(err)
	}
	if n := tr.Normalized(); n.Pattern != "" {
		t.Errorf("trace scenario normalized to pattern %q, want none", n.Pattern)
	}

	// A source spec that only names its kind gets the documented
	// parameter defaults, without mutating the original spec.
	var b Scenario
	if err := json.Unmarshal([]byte(`{"pattern": "uniform", "source": {"kind": "pareto"}}`), &b); err != nil {
		t.Fatal(err)
	}
	bn := b.Normalized()
	if bn.Source.BurstRatio != 4 || bn.Source.BurstLen != 64 || bn.Source.ParetoAlpha != 1.5 {
		t.Errorf("source defaults not filled: %+v", bn.Source)
	}
	if b.Source.BurstRatio != 0 {
		t.Error("Normalized mutated the receiver's source spec")
	}
	if err := bn.Validate(); err != nil {
		t.Errorf("defaulted source scenario invalid: %v", err)
	}
}
