package results

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/nocsim/manifest"
)

// TestCompactRoundTrip pins the compaction contract: superseded plans
// and duplicate point lines leave the file, the file shrinks, and every
// query surface — Plans, Resolve, the stored points, ExportJournal — answers
// byte-identically before and after, across a reopen.
func TestCompactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s := openStore(t, path)

	// An old plan under the name "fig7", fully ingested…
	old := testManifest(t, "fig7", 0.1, 0.2)
	oldSum, err := s.AddManifest(old)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < old.NumPoints(); i++ {
		if err := s.AddPoint(oldSum, i, fakeResult(t, old, i)); err != nil {
			t.Fatal(err)
		}
	}
	// …superseded by a re-planned "fig7", plus an unrelated live plan.
	cur := testManifest(t, "fig7", 0.1, 0.2, 0.3)
	curSum, err := s.AddManifest(cur)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cur.NumPoints(); i++ {
		if err := s.AddPoint(curSum, i, fakeResult(t, cur, i)); err != nil {
			t.Fatal(err)
		}
	}
	live := testManifest(t, "baseline", 0.4)
	liveSum, err := s.AddManifest(live)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < live.NumPoints(); i++ {
		if err := s.AddPoint(liveSum, i, fakeResult(t, live, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A duplicate point line on disk — the kind a re-imported journal
	// leaves behind. The index collapses it; only compaction removes it.
	late := fakeResult(t, cur, 0)
	late.AvgDelayNs = 9999 // not the first result for the point: must not survive
	dup := recordLine(t, &record{Kind: kindPoint, Sum: curSum, Point: &manifest.Record{Index: 0, Result: late}})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(dup); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	exportOf := func(s *Store, sum string) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := s.ExportJournal(&buf, sum); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	s = openStore(t, path)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	wantCur, wantLive := exportOf(s, curSum), exportOf(s, liveSum)

	droppedPlans, droppedPoints, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if droppedPlans != 1 {
		t.Fatalf("dropped %d plans, want 1 (the superseded fig7)", droppedPlans)
	}
	// The superseded plan's points plus the duplicate line.
	if want := old.NumPoints() + 1; droppedPoints != want {
		t.Fatalf("dropped %d point lines, want %d", droppedPoints, want)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("file did not shrink: %d -> %d bytes", before.Size(), after.Size())
	}

	// Compaction copies the stored point lines; the file must be the one
	// re-encoding every surviving record would have written.
	var reencoded bytes.Buffer
	for _, m := range []*manifest.Manifest{cur, live} {
		sum, _ := manifest.Sum(m)
		reencoded.Write(recordLine(t, &record{Kind: kindManifest, Sum: sum, Manifest: m}))
		for i := 0; i < m.NumPoints(); i++ {
			reencoded.Write(recordLine(t, &record{Kind: kindPoint, Sum: sum, Point: &manifest.Record{Index: i, Result: fakeResult(t, m, i)}}))
		}
	}
	if compacted, err := os.ReadFile(path); err != nil || !bytes.Equal(compacted, reencoded.Bytes()) {
		t.Fatalf("compacted file (%v) is not the re-encoded one:\n--- compacted ---\n%s--- re-encoded ---\n%s", err, compacted, reencoded.Bytes())
	}

	check := func(s *Store, label string, wantPlans int) {
		t.Helper()
		if got := exportOf(s, curSum); !bytes.Equal(got, wantCur) {
			t.Fatalf("%s: fig7 export changed across compaction", label)
		}
		if got := exportOf(s, liveSum); !bytes.Equal(got, wantLive) {
			t.Fatalf("%s: baseline export changed across compaction", label)
		}
		if sum, ok := s.Resolve("fig7"); !ok || sum != curSum {
			t.Fatalf("%s: Resolve(fig7) = (%s, %v), want %s", label, sum, ok, curSum)
		}
		if _, ok := s.Resolve(oldSum); ok {
			t.Fatalf("%s: superseded plan %s still resolvable", label, oldSum)
		}
		plans := s.Plans()
		if len(plans) != wantPlans {
			t.Fatalf("%s: %d plans, want %d: %+v", label, len(plans), wantPlans, plans)
		}
		for _, p := range plans {
			if (p.Sum == curSum || p.Sum == liveSum) && !p.Complete {
				t.Fatalf("%s: plan %s incomplete after compaction: %+v", label, p.Sum, p)
			}
		}
	}
	check(s, "compacted store", 2)

	// The compacted store stays writable: appends land after the rewrite.
	extra := testManifest(t, "extra", 0.5)
	extraSum, err := s.AddManifest(extra)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddPoint(extraSum, 0, fakeResult(t, extra, 0)); err != nil {
		t.Fatal(err)
	}
	// Nothing is dead now, and the store knows without reading the file.
	if plans, points, err := s.Compact(); err != nil || plans != 0 || points != 0 {
		t.Fatalf("second compaction dropped (%d plans, %d points, %v), want nothing", plans, points, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, path)
	defer s2.Close()
	check(s2, "reopened store", 3)
	if pts, ok := pointsOf(s2, extraSum); !ok || len(pts) != 1 {
		t.Fatalf("post-compaction append lost: (%d, %v)", len(pts), ok)
	}
}

// TestCompactRefusesReadOnly pins the guard: a follower must never
// rewrite the file under the writer.
func TestCompactRefusesReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s := openStore(t, path)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ro.Compact(); err == nil {
		t.Fatal("read-only compaction accepted")
	}
	if _, _, err := s.Compact(); err == nil {
		t.Fatal("closed-store compaction accepted")
	}
}
