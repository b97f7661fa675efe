package queue

import (
	"testing"

	"repro/nocsim"
	"repro/nocsim/manifest"
	"repro/nocsim/results"
)

// adaptiveManifest is testManifest planned as an adaptive sweep.
func adaptiveManifest(t *testing.T, name string, loads, budget int) *manifest.Manifest {
	t.Helper()
	m := testManifest(t, name, loads)
	m.RefineBudget = budget
	return m
}

// kneeResult is point i of a hockey-stick delay curve over n loads: flat
// until the last two samples, which double and then blow up — the shape
// manifest.Refine spends its budget on.
func kneeResult(i, n int) nocsim.Result {
	r := fakeResult(i)
	switch i {
	case n - 2:
		r.AvgDelayNs = 250
	case n - 1:
		r.AvgDelayNs = 900
	}
	return r
}

// post posts result(i) for points [from, to) of the named manifest.
func post(t *testing.T, c *Coordinator, m *manifest.Manifest, from, to int, result func(i int) nocsim.Result) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := c.PostResult(ResultRequest{Worker: "w", Name: m.Name, Index: i, Result: result(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// wantChild is the refinement the coordinator must derive for parent
// once every point carries kneeResult.
func wantChild(t *testing.T, parent *manifest.Manifest) *manifest.Manifest {
	t.Helper()
	n := parent.NumPoints()
	res := make([]nocsim.Result, n)
	for i := range res {
		res[i] = kneeResult(i, n)
	}
	child, err := manifest.Refine(parent, res, parent.RefineBudget)
	if err != nil || child == nil {
		t.Fatalf("test curve refines to (%v, %v), want a child", child, err)
	}
	return child
}

// TestFollowOnKeepsWorkersAttached is the adaptive-sweep fleet contract
// with no client attached: the post that completes an adaptive parent
// registers its refinement first, so unscoped workers (and Complete,
// i.e. -exit-when-done) never see the run over between the passes, the
// same workers drain the follow-on with no restart, and only then does
// the coordinator report done.
func TestFollowOnKeepsWorkersAttached(t *testing.T) {
	c := New(Config{})
	parent := adaptiveManifest(t, "x", 5, 2)
	if err := c.Add(parent, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	n := parent.NumPoints()
	knee := func(i int) nocsim.Result { return kneeResult(i, n) }

	post(t, c, parent, 0, n-1, knee)
	if got := len(c.Names()); got != 1 {
		t.Fatalf("%d manifests registered before the parent's last point, want 1", got)
	}
	post(t, c, parent, n-1, n, knee)
	child := wantChild(t, parent)
	if names := c.Names(); len(names) != 2 || names[1] != child.Name {
		t.Fatalf("registered %v after the parent completed, want [x %s]", names, child.Name)
	}
	if c.Complete() {
		t.Fatal("Complete() true with the follow-on undrained")
	}
	// A lease scoped to the complete parent reads done: its own
	// completion is its own answer.
	if ls, err := c.Lease(LeaseRequest{Worker: "w", Name: "x"}); err != nil || ls.Status != StatusDone {
		t.Fatalf("scoped lease of the complete parent = (%+v, %v), want done", ls, err)
	}
	ls, err := c.Lease(LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease || ls.Name != child.Name {
		t.Fatalf("unscoped lease after the parent = (%+v, %v), want a %s point", ls, err, child.Name)
	}
	post(t, c, child, 0, child.NumPoints(), fakeResult)
	if ls, err := c.Lease(LeaseRequest{Worker: "w"}); err != nil || ls.Status != StatusDone {
		t.Fatalf("unscoped lease after draining the follow-on = (%+v, %v), want done", ls, err)
	}
	if !c.Complete() {
		t.Fatal("Complete() false after the follow-on drained")
	}
	if got := len(c.Names()); got != 2 {
		t.Fatalf("%d manifests registered, want 2: a child is never refined again", got)
	}
}

// TestFollowOnDerivedOnlyWhenWorthIt: a parent without a budget, and an
// adaptive parent whose curve is flat, complete with no child.
func TestFollowOnDerivedOnlyWhenWorthIt(t *testing.T) {
	for _, m := range []*manifest.Manifest{testManifest(t, "fixed", 4), adaptiveManifest(t, "flat", 4, 4)} {
		c := New(Config{})
		if err := c.Add(m, nil); err != nil {
			t.Fatal(err)
		}
		c.Seal()
		n := m.NumPoints()
		post(t, c, m, 0, n, func(i int) nocsim.Result { return kneeResult(i, n+10) }) // 100, 101, ...: flat
		if !c.Complete() || len(c.Names()) != 1 {
			t.Errorf("%s: complete=%v with %v registered, want complete with no child", m.Name, c.Complete(), c.Names())
		}
	}
}

// TestFollowOnDerivedWithConcurrentPosts: when the last two points are
// being journaled at once, the post that hands in the last one derives
// from the other's pending result, so the parent still cannot complete
// without its child.
func TestFollowOnDerivedWithConcurrentPosts(t *testing.T) {
	c := New(Config{})
	parent := adaptiveManifest(t, "x", 5, 2)
	if err := c.Add(parent, nil); err != nil {
		t.Fatal(err)
	}
	n := parent.NumPoints()
	post(t, c, parent, 0, n-2, func(i int) nocsim.Result { return kneeResult(i, n) })
	j := c.jobs["x"]
	j.slots[n-2] = slot{journaling, manifest.Record{Index: n - 2, Result: kneeResult(n-2, n)}} // mid-journal, as PostResult leaves it without c.mu
	j.journaling++
	post(t, c, parent, n-1, n, func(i int) nocsim.Result { return kneeResult(i, n) })
	if names := c.Names(); len(names) != 2 || names[1] != wantChild(t, parent).Name {
		t.Fatalf("registered %v, want the parent and its derived child", names)
	}
}

// TestFollowOnJournalAndResume proves a derived follow-on runs through
// the persistence machinery unchanged: it is saved to the manifest
// store, its accepted points are journaled and mirrored into the
// results store, and a restarted coordinator that Adds the completed
// parent derives the same child and resumes its journaled points
// instead of recomputing them.
func TestFollowOnJournalAndResume(t *testing.T) {
	dir := t.TempDir()
	st, err := manifest.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := results.Open(dir + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	parent := adaptiveManifest(t, "x", 5, 2)
	if err := st.SaveManifest(parent); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Store: st, Results: rs})
	if err := c.Add(parent, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	n := parent.NumPoints()
	post(t, c, parent, 0, n, func(i int) nocsim.Result { return kneeResult(i, n) })

	child := wantChild(t, parent)
	if child.NumPoints() != 2 {
		t.Fatalf("child has %d points, want 2 (the budget)", child.NumPoints())
	}
	stored, err := st.LoadManifest(child.Name)
	if err != nil || stored == nil {
		t.Fatalf("follow-on manifest not persisted: (%v, %v)", stored, err)
	}
	childSum, err := manifest.Sum(child)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := manifest.Sum(stored); got != childSum {
		t.Fatalf("stored follow-on has plan %s, want %s", got, childSum)
	}
	post(t, c, child, 0, 1, fakeResult) // half the child, then a crash
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(journalLines(t, st, child.Name)); got != 1 {
		t.Fatalf("%d journal lines for the follow-on, want 1", got)
	}
	if pts, err := rs.Select(results.Query{Plan: childSum}); err != nil || len(pts) != 1 {
		t.Fatalf("results store holds %d follow-on points (%v), want 1", len(pts), err)
	}

	// "Restart": a fresh coordinator over the same store, handed the
	// parent's journal as the serve loop does, derives the same child and
	// resumes its journaled point.
	c2 := New(Config{Store: st, Results: rs})
	have, err := st.LoadPoints(parent.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Add(parent, have); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Seal()
	m, ok := c2.Manifest(child.Name)
	if !ok {
		t.Fatalf("restarted coordinator serves %v, want the derived child too", c2.Names())
	}
	if got, _ := manifest.Sum(m); got != childSum {
		t.Fatalf("restarted coordinator derived plan %s, want %s", got, childSum)
	}
	stat, ok := c2.Status(child.Name)
	if !ok || stat.Done != 1 || stat.Complete {
		t.Fatalf("resumed follow-on status = (%+v, %v), want 1 of 2 points done", stat, ok)
	}
	post(t, c2, child, 1, 2, fakeResult)
	if !c2.Complete() {
		t.Fatal("Complete() false once the resumed follow-on drained")
	}
	if got := len(journalLines(t, st, child.Name)); got != 2 {
		t.Fatalf("%d journal lines for the follow-on, want exactly one per point", got)
	}
}
