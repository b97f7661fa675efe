package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// pointsOf returns the plan's stored results by point index, as the
// store's index holds them.
func pointsOf(s *Store, sum string) (map[int]nocsim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.plans[sum]
	if !ok {
		return nil, false
	}
	out := make(map[int]nocsim.Result, len(p.points))
	for _, pt := range p.points {
		out[pt.index] = pt.r
	}
	return out, true
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
	pts, ok := pointsOf(s2, sum)
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
	if pts, _ := pointsOf(s2, sum); len(pts) != 1 {
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
	if pts, _ := pointsOf(s3, sum); len(pts) != 2 {
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
	if pts, _ := pointsOf(ro, sum); len(pts) != 1 {
		t.Fatalf("follower sees %d points, want 1", len(pts))
	}
	// Writer appends more (all but the last point); the follower only
	// sees it after Refresh.
	for i := 1; i < m.NumPoints()-1; i++ {
		if err := w.AddPoint(sum, i, fakeResult(t, m, i)); err != nil {
			t.Fatal(err)
		}
	}
	if pts, _ := pointsOf(ro, sum); len(pts) != 1 {
		t.Fatalf("follower saw appends without Refresh: %d points", len(pts))
	}
	if err := ro.Refresh(); err != nil {
		t.Fatal(err)
	}
	if pts, _ := pointsOf(ro, sum); len(pts) != m.NumPoints()-1 {
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
		for _, p := range s.Plans() {
			stored += p.Done
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

// TestSelectLimitSpansPlans: a limit counts the hits of every plan in
// scope together, in ingest order.
func TestSelectLimitSpansPlans(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "results.jsonl"))
	defer s.Close()
	for _, name := range []string{"fig7", "fig8", "fig9"} {
		m := testManifest(t, name, 0.1, 0.2) // 6 points
		sum, err := s.AddManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.NumPoints(); i++ {
			if err := s.AddPoint(sum, i, fakeResult(t, m, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pts, err := s.Select(Query{Limit: 8})
	if err != nil || len(pts) != 8 {
		t.Fatalf("Select = (%d points, %v), want 8", len(pts), err)
	}
	if pts[5].Name != "fig7" || pts[6].Name != "fig8" || pts[7].Index != 1 {
		t.Errorf("hits 5–7 are %s/%d, %s/%d, %s/%d; want fig7/5, fig8/0, fig8/1",
			pts[5].Name, pts[5].Index, pts[6].Name, pts[6].Index, pts[7].Name, pts[7].Index)
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
	// A value must be a number as a whole, a finite one for the load
	// bounds, and a limit must not be negative.
	for _, bad := range []struct{ key, val string }{
		{"min_load", "0.2junk"}, {"max_load", "0.3 "}, {"max_load", "NaN"}, {"min_load", "-Inf"}, {"max_load", "+Inf"},
		{"limit", "5x"}, {"limit", "0x10"}, {"limit", "-3"}, {"limit", "2.5"}, {"limit", ""},
	} {
		q, err := ParseQuery(map[string]string{bad.key: bad.val})
		if want := fmt.Sprintf("results: bad %s %q", bad.key, bad.val); err == nil || err.Error() != want {
			t.Errorf("ParseQuery(%s=%q) = (%+v, %v), want error %q", bad.key, bad.val, q, err, want)
		}
	}
	q, err = ParseQuery(map[string]string{"min_load": "1e-1", "max_load": "0.25", "limit": "0"})
	if err != nil || q.MinLoad != 0.1 || q.MaxLoad != 0.25 || q.Limit != 0 {
		t.Fatalf("parsed = (%+v, %v)", q, err)
	}
	// plan, fig and manifest name one filter: a query naming two is
	// refused, whatever order the map yields them in, and not answered
	// for whichever one came last.
	for i := 0; i < 20; i++ {
		q, err := ParseQuery(map[string]string{"plan": "a", "fig": "b"})
		if want := "results: query names both fig and plan; use one"; err == nil || err.Error() != want {
			t.Fatalf("ParseQuery(plan=a, fig=b) = (%+v, %v), want error %q", q, err, want)
		}
		q, err = ParseQuery(map[string]string{"plan": "a", "fig": "b", "manifest": "c"})
		if want := "results: query names both fig and manifest; use one"; err == nil || err.Error() != want {
			t.Fatalf("ParseQuery(plan=a, fig=b, manifest=c) = (%+v, %v), want error %q", q, err, want)
		}
	}
	for _, k := range []string{"plan", "fig", "manifest"} {
		if q, err := ParseQuery(map[string]string{k: "fig7"}); err != nil || q.Plan != "fig7" {
			t.Errorf("ParseQuery(%s=fig7) = (%+v, %v)", k, q, err)
		}
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

// overclaim returns store lines for plans plans whose manifest lines,
// about 11 KB each, claim a million points each — a thousand policies at
// a thousand loads — followed by two points of the last one.
func overclaim(t testing.TB, plans int) []byte {
	t.Helper()
	var lines []byte
	var m *manifest.Manifest
	var sum string
	for k := 0; k < plans; k++ {
		m = testManifest(t, fmt.Sprintf("overclaim-%d", k))
		g := &m.Panels[0].Grid
		g.Loads, g.Policies = nil, nil
		for i := 0; i < 1000; i++ {
			g.Loads = append(g.Loads, float64(i%9+1)/10)
			g.Policies = append(g.Policies, nocsim.RMSD)
		}
		var err error
		if sum, err = manifest.Sum(m); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, recordLine(t, &record{Kind: kindManifest, Sum: sum, Manifest: m})...)
	}
	for _, i := range []int{0, 999_999} {
		lines = append(lines, recordLine(t, &record{Kind: kindPoint, Sum: sum, Point: &manifest.Record{Index: i, Result: fakeResult(t, m, i)}})...)
	}
	return lines
}

// TestMemoryFollowsStoredPoints: what opening a store costs follows the
// points its file holds, not the points its manifest lines claim: it
// stays within a small multiple of the file's size, for one such line and
// for many, whose presizes draw on one budget.
func TestMemoryFollowsStoredPoints(t *testing.T) {
	for _, plans := range []int{1, 100} {
		path := filepath.Join(t.TempDir(), "results.jsonl")
		file := overclaim(t, plans)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := OpenReadOnly(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := s.Plans()
		if len(got) != plans || got[plans-1].Total != 1_000_000 || got[plans-1].Done != 2 {
			t.Fatalf("%d plans = %+v, want %[1]d plans of a million points, two of the last stored", plans, got)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20+16*uint64(len(file)) {
			t.Errorf("opening a 2-point store of %d plans, %d bytes, allocated %d bytes", plans, len(file), grew)
		}
	}
}

// TestOutOfOrderPoints: points a live coordinator stores out of index
// order read back in index order everywhere — Select, Complete's flat
// results, ExportJournal, Compact's file — before and after a reopen, and
// a duplicate of the first, a middle or the last of them is acknowledged
// without a line.
func TestOutOfOrderPoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	m := testManifest(t, "fig7", 0.1, 0.2, 0.3, 0.4) // 12 points
	s := openStore(t, path)
	sum, err := s.AddManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	var journal, compacted bytes.Buffer
	compacted.Write(recordLine(t, &record{Kind: kindManifest, Sum: sum, Manifest: m}))
	for i := 0; i < m.NumPoints(); i++ {
		rec := manifest.Record{Index: i, Result: fakeResult(t, m, i)}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal.Write(append(line, '\n'))
		compacted.Write(recordLine(t, &record{Kind: kindPoint, Sum: sum, Point: &rec}))
	}
	for _, i := range []int{5, 0, 11, 3, 7, 1, 10, 2, 9, 4, 8} { // all but 6
		if err := s.AddPoint(sum, i, fakeResult(t, m, i)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store, when string) {
		t.Helper()
		pts, err := s.Select(Query{Plan: sum})
		if err != nil || len(pts) != 11 {
			t.Fatalf("%s: Select = (%d points, %v), want 11", when, len(pts), err)
		}
		for k, p := range pts {
			if want := k + k/6; p.Index != want || p.Meta.PointIndex != want { // 6 is missing
				t.Fatalf("%s: hit %d is point %d (result of %d), want %d", when, k, p.Index, p.Meta.PointIndex, want)
			}
		}
		var out bytes.Buffer
		if err := s.ExportJournal(&out, sum); err != nil {
			t.Fatal(err)
		}
		want := bytes.Join(slices.Delete(bytes.SplitAfter(journal.Bytes(), []byte("\n")), 6, 7), nil)
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s: export is not the journal in index order:\n%s", when, out.Bytes())
		}
		size := fileSize(t, path)
		for _, i := range []int{0, 5, 11} {
			if err := s.AddPoint(sum, i, fakeResult(t, m, 0)); err != nil || fileSize(t, path) != size {
				t.Fatalf("%s: a duplicate of %d = %v, file %d → %d bytes", when, i, err, size, fileSize(t, path))
			}
		}
	}
	check(s, "after the appends")
	if err := s.AddPoint(sum, 6, fakeResult(t, m, 6)); err != nil {
		t.Fatal(err)
	}
	_, flat, done, ok := s.Complete(sum)
	if !ok || done != m.NumPoints() || len(flat) != done {
		t.Fatalf("Complete = (%d results, %d done, %v)", len(flat), done, ok)
	}
	for i, r := range flat {
		if r.Meta.PointIndex != i {
			t.Fatalf("flat result %d is point %d's", i, r.Meta.PointIndex)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openStore(t, path)
	defer s.Close()
	if err := s.AddPoint(sum, 6, fakeResult(t, m, 0)); err != nil { // reopened from the out-of-order file
		t.Fatal(err)
	}
	if plans, points, err := s.Compact(); err != nil || plans != 0 || points != 0 {
		t.Fatalf("Compact = (%d, %d, %v), want nothing dropped", plans, points, err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, compacted.Bytes()) {
		t.Fatalf("compacted file (%v) is not the points in index order:\n%s", err, got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}
