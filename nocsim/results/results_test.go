package results

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/nocsim"
	"repro/nocsim/manifest"
)

// testManifest builds a small resolved manifest: three policies crossed
// with loads, calibration pinned, so points resolve without simulating.
func testManifest(t testing.TB, name string, loads ...float64) *manifest.Manifest {
	t.Helper()
	base := nocsim.Scenario{Mesh: nocsim.DefaultMesh(), Pattern: "uniform", Quick: true, Seed: 1}.Normalized()
	base.Calibration = &nocsim.Calibration{SaturationRate: 0.6, LambdaMax: 0.54, TargetDelayNs: 100}
	return &manifest.Manifest{Name: name, Quick: true, Points: len(loads), Seed: 1, Panels: []manifest.Panel{
		{Label: "uniform", Grid: nocsim.Grid{Base: base, Loads: loads, Policies: nocsim.AllPolicies()}},
	}}
}

// fakeResult synthesizes a result whose scenario is the manifest's
// resolved point i — so scenario-level query filters see realistic
// policy/pattern/load values without running a simulation.
func fakeResult(t testing.TB, m *manifest.Manifest, i int) nocsim.Result {
	t.Helper()
	_, sc, err := m.Point(i)
	if err != nil {
		t.Fatal(err)
	}
	var r nocsim.Result
	r.Scenario = sc
	r.AvgDelayNs = float64(100 + i)
	r.Meta.PointIndex = i
	return r
}

func openStore(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStorePersistsAcrossReopen pins the single-file contract: plans and
// points ingested by one store are fully indexed by a fresh open over
// the same file, and duplicates are never stored twice.
func TestStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	m := testManifest(t, "fig7", 0.1, 0.2)
	s := openStore(t, path)
	sum, err := s.AddManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := s.AddManifest(m); again != sum {
		t.Fatalf("re-add changed sum: %s vs %s", again, sum)
	}
	for i := 0; i < m.NumPoints(); i++ {
		if err := s.AddPoint(sum, i, fakeResult(t, m, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate point: first result wins, no growth.
	other := fakeResult(t, m, 0)
	other.AvgDelayNs = 9999
	if err := s.AddPoint(sum, 0, other); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, path)
	defer s2.Close()
	plans := s2.Plans()
	if len(plans) != 1 || plans[0].Sum != sum || !plans[0].Complete || plans[0].Done != m.NumPoints() {
		t.Fatalf("reopened plans = %+v, want one complete plan %s", plans, sum)
	}
	pts, ok := s2.PointsOf(sum)
	if !ok || len(pts) != m.NumPoints() {
		t.Fatalf("reopened points = (%d, %v), want %d", len(pts), ok, m.NumPoints())
	}
	if pts[0].AvgDelayNs != 100 {
		t.Fatalf("duplicate overwrote first result: AvgDelayNs = %g, want 100", pts[0].AvgDelayNs)
	}
}

// TestStoreTornTailRecovery crashes mid-append (simulated by writing a
// partial line) and requires a fresh writable open to truncate it and
// keep everything before it.
func TestStoreTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	m := testManifest(t, "fig7", 0.1)
	s := openStore(t, path)
	sum, err := s.AddManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddPoint(sum, 0, fakeResult(t, m, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"point","sum":"` + sum + `","point":{"ind`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, path)
	defer s2.Close()
	if pts, _ := s2.PointsOf(sum); len(pts) != 1 {
		t.Fatalf("recovered store holds %d points, want 1", len(pts))
	}
	// And the torn bytes are really gone: appending works and a reopen
	// still parses every line.
	if err := s2.AddPoint(sum, 1, fakeResult(t, m, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, path)
	defer s3.Close()
	if pts, _ := s3.PointsOf(sum); len(pts) != 2 {
		t.Fatalf("store after torn-tail append holds %d points, want 2", len(pts))
	}
}

// TestReadOnlyFollowerRefresh pins the live-dashboard mode: a read-only
// store over the same file sees new records after Refresh, never
// truncates the writer's tail, and refuses appends.
func TestReadOnlyFollowerRefresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	m := testManifest(t, "fig7", 0.1, 0.2)
	w := openStore(t, path)
	defer w.Close()
	sum, err := w.AddManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddPoint(sum, 0, fakeResult(t, m, 0)); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	if pts, _ := ro.PointsOf(sum); len(pts) != 1 {
		t.Fatalf("follower sees %d points, want 1", len(pts))
	}
	// Writer appends more (all but the last point); the follower only
	// sees it after Refresh.
	for i := 1; i < m.NumPoints()-1; i++ {
		if err := w.AddPoint(sum, i, fakeResult(t, m, i)); err != nil {
			t.Fatal(err)
		}
	}
	if pts, _ := ro.PointsOf(sum); len(pts) != 1 {
		t.Fatalf("follower saw appends without Refresh: %d points", len(pts))
	}
	if err := ro.Refresh(); err != nil {
		t.Fatal(err)
	}
	if pts, _ := ro.PointsOf(sum); len(pts) != m.NumPoints()-1 {
		t.Fatalf("follower after Refresh sees %d points, want %d", len(pts), m.NumPoints()-1)
	}
	// A point the store does not hold yet cannot be appended read-only
	// (duplicates of stored points are still acknowledged idempotently).
	last := m.NumPoints() - 1
	if err := ro.AddPoint(sum, last, fakeResult(t, m, last)); err == nil {
		t.Fatal("read-only store accepted an append")
	}
}

// TestBackfillRoundTripByteIdentical is the backfill acceptance test: a
// serially written DirStore journal imported into the store exports back
// out byte-identical — and the import is idempotent.
func TestBackfillRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := manifest.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, "fig7", 0.1, 0.2, 0.3)
	if err := st.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	j, err := st.Journal("fig7")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumPoints(); i++ {
		if err := j.Append(i, fakeResult(t, m, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	original, err := os.ReadFile(st.PointsPath("fig7"))
	if err != nil {
		t.Fatal(err)
	}

	s := openStore(t, filepath.Join(dir, "results.jsonl"))
	defer s.Close()
	plans, points, err := s.ImportDir(st)
	if err != nil {
		t.Fatal(err)
	}
	if plans != 1 || points != m.NumPoints() {
		t.Fatalf("import = (%d plans, %d points), want (1, %d)", plans, points, m.NumPoints())
	}
	sum, ok := s.Resolve("fig7")
	if !ok {
		t.Fatal("imported plan not resolvable by name")
	}
	var out bytes.Buffer
	if err := s.ExportJournal(&out, sum); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), original) {
		t.Fatalf("export is not byte-identical to the journal:\n--- journal ---\n%s--- export ---\n%s", original, out.Bytes())
	}

	// Idempotent: importing again adds nothing and the export is stable.
	if _, points, err = s.ImportDir(st); err != nil || points != 0 {
		t.Fatalf("re-import = (%d points, %v), want (0, nil)", points, err)
	}
	var again bytes.Buffer
	if err := s.ExportJournal(&again, sum); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), original) {
		t.Fatal("export changed after re-import")
	}
}

// TestImportJournalSameBytesOneSync pins the import's file: a manifest
// line and the points in index order, exactly what one durable append per
// point wrote — and, because the points now share one fsync, that a crash
// anywhere before it (the file cut at any byte) converges on re-import to
// that same file.
func TestImportJournalSameBytesOneSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	m := testManifest(t, "fig7", 0.1, 0.2, 0.3)
	sum, err := manifest.Sum(m)
	if err != nil {
		t.Fatal(err)
	}
	have := map[int]nocsim.Result{}
	var want bytes.Buffer
	want.Write(recordLine(t, &record{Kind: kindManifest, Sum: sum, Manifest: m}))
	for i := 0; i < m.NumPoints(); i++ {
		have[i] = fakeResult(t, m, i)
		want.Write(recordLine(t, &record{Kind: kindPoint, Sum: sum, Point: &manifest.Record{Index: i, Result: have[i]}}))
	}
	for cut := 0; cut <= want.Len(); cut += 131 {
		if err := os.WriteFile(path, want.Bytes()[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, path)
		stored := 0 // points whose whole line is before the cut
		if p := s.plans[sum]; p != nil {
			stored = len(p.points)
		}
		if _, added, err := s.ImportJournal(m, have); err != nil || added != m.NumPoints()-stored {
			t.Fatalf("cut %d: import = (%d added, %v), want %d", cut, added, err, m.NumPoints()-stored)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("cut %d: imported file (%v) differs from the per-point import's:\n--- got ---\n%s--- want ---\n%s", cut, err, got, want.Bytes())
		}
	}
}

// TestSelectFilters drives the query contract: filters on plan, panel,
// policy, pattern, mesh and load ranges, combined.
func TestSelectFilters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s := openStore(t, path)
	defer s.Close()
	m := testManifest(t, "fig7", 0.1, 0.2) // 3 policies x 2 loads
	sum, err := s.AddManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumPoints(); i++ {
		if err := s.AddPoint(sum, i, fakeResult(t, m, i)); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, 6},
		{"by name", Query{Plan: "fig7"}, 6},
		{"by sum", Query{Plan: sum}, 6},
		{"policy", Query{Policy: "rmsd"}, 2},
		{"policy+load", Query{Policy: "dmsd", MinLoad: 0.15}, 1},
		{"load band", Query{MinLoad: 0.05, MaxLoad: 0.15}, 3},
		{"pattern", Query{Pattern: "uniform"}, 6},
		{"pattern miss", Query{Pattern: "tornado"}, 0},
		{"mesh", Query{Mesh: "5x5"}, 6},
		{"mesh miss", Query{Mesh: "8x8"}, 0},
		{"panel", Query{Panel: "uniform"}, 6},
		{"limit", Query{Limit: 4}, 4},
	}
	for _, tc := range cases {
		pts, err := s.Select(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(pts) != tc.want {
			t.Errorf("%s: %d points, want %d", tc.name, len(pts), tc.want)
		}
	}
	if _, err := s.Select(Query{Plan: "nosuch"}); err == nil {
		t.Error("select on unknown plan did not error")
	}

	// Points carry their location: panel label and index.
	pts, _ := s.Select(Query{Policy: "nodvfs"})
	for _, p := range pts {
		if p.Panel != "uniform" || p.Name != "fig7" || p.Sum != sum {
			t.Errorf("point location = %+v", p)
		}
	}
}

// TestParseQuery pins the HTTP parameter vocabulary, including the
// rejection of unknown keys.
func TestParseQuery(t *testing.T) {
	q, err := ParseQuery(map[string]string{"fig": "fig7", "policy": "rmsd", "min_load": "0.2", "limit": "5"})
	if err != nil {
		t.Fatal(err)
	}
	if q.Plan != "fig7" || q.Policy != "rmsd" || q.MinLoad != 0.2 || q.Limit != 5 {
		t.Fatalf("parsed = %+v", q)
	}
	if _, err := ParseQuery(map[string]string{"polcy": "rmsd"}); err == nil {
		t.Fatal("typoed key accepted")
	}
	if _, err := ParseQuery(map[string]string{"min_load": "abc"}); err == nil {
		t.Fatal("bad min_load accepted")
	}
}

// TestMeshFilterIsItsPrint: a parsed mesh filter matches a scenario's
// mesh exactly when the filter reads as fmt prints that mesh, "%dx%d".
func TestMeshFilterIsItsPrint(t *testing.T) {
	filters := []string{"5x5", "8x8", "5x8", "-1x5", "05x5", "+5x5", "5X5", "5x5x5", "x5", "5x", "5", " 5x5", "5 x5", "-0x5", "0x0", "99999999999999999999x5"}
	for _, f := range filters {
		mesh, ok := parseMesh(f)
		for _, wh := range [][2]int{{5, 5}, {5, 8}, {8, 8}, {-1, 5}, {0, 0}} {
			var r nocsim.Result
			r.Scenario.Mesh.Width, r.Scenario.Mesh.Height = wh[0], wh[1]
			want := fmt.Sprintf("%dx%d", wh[0], wh[1]) == f
			if got := ok && (&Query{}).matches("", mesh, &r); got != want {
				t.Errorf("filter %q on a %dx%d mesh: match %v, want %v", f, wh[0], wh[1], got, want)
			}
		}
	}
}
