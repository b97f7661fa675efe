package nocsim

import (
	"bytes"
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
func exampleScenarios() map[string]Scenario {
	cal := &Calibration{SaturationRate: 0.42, LambdaMax: 0.378, TargetDelayNs: 150}
	set := map[string]Scenario{
		"baseline":     {Pattern: "uniform", Load: 0.2},
		"rmsd":         {Pattern: "uniform", Load: 0.2, Policy: RMSD, Calibration: cal},
		"dmsd":         {Pattern: "uniform", Load: 0.2, Policy: DMSD, Calibration: cal},
		"tornado":      {Pattern: "tornado", Load: 0.15},
		"bitcomp":      {Pattern: "bitcomp", Load: 0.15},
		"transpose":    {Pattern: "transpose", Load: 0.1},
		"neighbor":     {Pattern: "neighbor", Load: 0.3},
		"vc2":          {Pattern: "uniform", Mesh: Mesh{VCs: 2}, Load: 0.15},
		"buf8":         {Pattern: "uniform", Mesh: Mesh{BufDepth: 8}, Load: 0.2},
		"pkt10":        {Pattern: "uniform", Mesh: Mesh{PacketSize: 10}, Load: 0.2},
		"mesh4x4":      {Pattern: "uniform", Mesh: Mesh{Width: 4, Height: 4}, Load: 0.2},
		"mesh8x8":      {Pattern: "uniform", Mesh: Mesh{Width: 8, Height: 8}, Load: 0.2},
		"yx":           {Pattern: "uniform", Mesh: Mesh{Routing: RoutingYX}, Load: 0.2},
		"o1turn":       {Pattern: "uniform", Mesh: Mesh{Routing: RoutingO1Turn}, Load: 0.2},
		"h264":         {App: "h264", Load: 0.5},
		"vce":          {App: "vce", Load: 0.75},
		"seeded":       {Pattern: "uniform", Load: 0.2, Seed: 77, Workers: 3},
		"slow-clock":   {Pattern: "uniform", Load: 0.2, FNodeHz: 8e8},
		"narrow-range": {Pattern: "uniform", Load: 0.2, FMinHz: 5e8, FMaxHz: 1e9},
		"mmpp":         {Pattern: "uniform", Load: 0.2, Source: &SourceSpec{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 64}},
		"pareto":       {Pattern: "uniform", Load: 0.15, Source: &SourceSpec{Kind: SourcePareto, BurstRatio: 3, BurstLen: 32, ParetoAlpha: 1.5}},
		"trace":        {TraceRef: "testdata/trace.golden.json", Mesh: Mesh{Width: 3, Height: 3}},
		"faulty":       {Pattern: "uniform", Load: 0.1, FaultyLinks: []string{"6>7", "7>6"}},
		"islands":      {Pattern: "uniform", Load: 0.1, Islands: []Island{{X0: 0, Y0: 0, X1: 1, Y1: 1, Speed: 0.5}}},
		"mesh6x3":      {Pattern: "uniform", Mesh: Mesh{Width: 6, Height: 3}, Load: 0.2},
	}
	out := make(map[string]Scenario, len(set))
	for name, s := range set {
		s.Quick = true
		out[name] = s.Normalized()
	}
	return out
}

// TestScenarioJSONRoundTrip is the wire-form contract: every scenario
// the examples and sweeps construct survives Marshal → Unmarshal exactly,
// and re-marshalling the recovered value reproduces the same bytes.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for name, s := range exampleScenarios() {
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
	s := Scenario{
		Pattern:     "uniform",
		Load:        0.2,
		Policy:      DMSD,
		Calibration: &Calibration{SaturationRate: 0.42, LambdaMax: 0.378, TargetDelayNs: 150},
		Seed:        7,
		Quick:       true,
	}.Normalized()
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
	s := Scenario{
		Pattern:     "uniform",
		Load:        0.2,
		Source:      &SourceSpec{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 64},
		FaultyLinks: []string{"6>7", "7>6"},
		Islands:     []Island{{X0: 0, Y0: 0, X1: 1, Y1: 4, Speed: 0.5}},
		Seed:        7,
		Quick:       true,
	}.Normalized()
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
		Base:     Scenario{Pattern: "tornado", Quick: true, Seed: 3}.Normalized(),
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

// TestNewValidatesEagerly: every inconsistent scenario a struct literal
// can state is rejected by Normalized+Validate, the one check a scenario
// passes before it reaches the engine — while the zero Scenario, the
// paper's baseline, is accepted.
func TestNewValidatesEagerly(t *testing.T) {
	if err := (Scenario{}).Normalized().Validate(); err != nil {
		t.Fatalf("the zero scenario is invalid after normalization: %v", err)
	}
	mmpp := func(ratio, length float64) *SourceSpec {
		return &SourceSpec{Kind: SourceMMPP, BurstRatio: ratio, BurstLen: length}
	}
	cases := map[string]Scenario{
		"unknown pattern":     {Pattern: "zipf"},
		"unknown app":         {App: "doom"},
		"unknown policy":      {Policy: PolicyKind("magic")},
		"negative load":       {Load: -0.1},
		"one mesh dimension":  {Mesh: Mesh{Width: 6}},
		"bad mesh":            {Mesh: Mesh{Width: -1, Height: 5}},
		"too many VCs":        {Mesh: Mesh{VCs: 13}},
		"bad routing":         {Mesh: Mesh{Routing: Routing("zigzag")}},
		"bad range":           {FMinHz: 1e9, FMaxHz: 333e6},
		"bad node clock":      {FNodeHz: -1},
		"rmsd no lambda":      {Policy: RMSD, Calibration: &Calibration{TargetDelayNs: 100}},
		"dmsd no target":      {Policy: DMSD, Calibration: &Calibration{LambdaMax: 0.3}},
		"negative workers":    {Workers: -1},
		"negative period":     {ControlPeriod: -1},
		"one freq level":      {FreqLevels: 1},
		"negative gain":       {KI: -0.1},
		"negative peak rate":  {App: "h264", PeakRate: -1},
		"app mesh mismatch":   {App: "h264", Mesh: Mesh{Width: 5, Height: 5}},
		"pattern + app":       {Pattern: "uniform", App: "h264"},
		"transpose non-sq":    {Pattern: "transpose", Mesh: Mesh{Width: 4, Height: 5}},
		"trace + pattern":     {TraceRef: "t.json", Pattern: "uniform"},
		"trace + app":         {TraceRef: "t.json", App: "h264"},
		"trace + dvfs":        {TraceRef: "t.json", Policy: RMSD},
		"trace + source":      {TraceRef: "t.json", Source: mmpp(4, 64)},
		"source + app":        {App: "h264", Source: mmpp(4, 64)},
		"source without kind": {Source: &SourceSpec{BurstRatio: 4}},
		"low burst ratio":     {Source: mmpp(0.5, 64)},
		"short burst":         {Source: mmpp(4, 0.25)},
		"bad pareto alpha":    {Source: &SourceSpec{Kind: SourcePareto, ParetoAlpha: 3}},
		"bad fault form":      {FaultyLinks: []string{"1-2"}},
		"fault non-adj":       {FaultyLinks: []string{"0>7"}},
		"fault o1turn":        {Mesh: Mesh{Routing: RoutingO1Turn}, FaultyLinks: []string{"0>1"}},
		"island outside":      {Islands: []Island{{X0: 0, Y0: 0, X1: 9, Y1: 9, Speed: 0.5}}},
		"island zero speed":   {Islands: []Island{{X1: 1, Y1: 1}}},
	}
	for name, s := range cases {
		if err := s.Normalized().Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", name)
		}
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

	// An app-only wire scenario defaults its mesh to the app's mapping —
	// the distribution story must not require the sender to spell out
	// the mesh.
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

// FuzzScenarioJSON feeds the scenario decoder arbitrary bytes. Decode →
// Validate → Normalized → encode never panics, and it is idempotent: the
// encoding decodes to a scenario that normalizes to itself, encodes to
// the same bytes and gets the same verdict from Validate.
func FuzzScenarioJSON(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range exampleScenarios() {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Scenario
		if json.Unmarshal(data, &s) != nil {
			return
		}
		_ = s.Validate() // not normalized: any verdict, but no panic
		n := s.Normalized()
		verdict := errText(n.Validate())
		enc, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("a decoded scenario does not encode: %v", err)
		}
		var back Scenario
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("the encoding %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(back.Normalized(), back) {
			t.Fatalf("%s decodes to a scenario that is not normalized:\n%+v\n%+v", enc, back, back.Normalized())
		}
		again, err := json.Marshal(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point (%v):\n%s\n%s", err, enc, again)
		}
		if v := errText(back.Validate()); v != verdict {
			t.Fatalf("Validate changed its verdict over an encoding round trip:\n%q\n%q", verdict, v)
		}
	})
}
