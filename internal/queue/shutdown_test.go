package queue

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/nocsim/manifest"
	"repro/nocsim/results"
)

// TestQuiesceDrainsLeasesButAcceptsPosts pins the graceful-shutdown
// contract: after Quiesce no new leases are granted (workers are told to
// wait), but leases already out are still renewed and their results
// accepted and journaled — nothing a worker paid for is lost to the
// shutdown.
func TestQuiesceDrainsLeasesButAcceptsPosts(t *testing.T) {
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, "x", 2)
	if err := st.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	c := New(Config{LeaseTTL: time.Minute, Store: st})
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	ls, err := client.Lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease {
		t.Fatalf("pre-quiesce lease = (%+v, %v), want a lease", ls, err)
	}

	c.Quiesce()

	// No new work is handed out — not even though points remain.
	if ls2, err := client.Lease(ctx, LeaseRequest{Worker: "w2"}); err != nil || ls2.Status != StatusWait {
		t.Fatalf("post-quiesce lease = (%+v, %v), want wait", ls2, err)
	}
	// The in-flight point's lease is still renewed...
	if err := client.Renew(ctx, RenewRequest{Worker: "w", Name: ls.Name, Index: ls.Index}); err != nil {
		t.Fatalf("post-quiesce renewal rejected: %v", err)
	}
	// ...and the point still lands, durably.
	if err := client.PostResult(ctx, ResultRequest{Worker: "w", Name: ls.Name, Index: ls.Index, Result: fakeResult(ls.Index)}); err != nil {
		t.Fatalf("post-quiesce post rejected: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := journalLines(t, st, "x"); len(lines) != 1 {
		t.Fatalf("journal holds %d lines, want the drained point: %v", len(lines), lines)
	}
}

// TestCoordinatorMirrorsToResultsStore: with Config.Results set, every
// plan and accepted point is mirrored into the results store alongside
// the journal, and a store that stops accepting writes is counted in
// /metrics rather than failing the post — the journal stays the source
// of truth.
func TestCoordinatorMirrorsToResultsStore(t *testing.T) {
	dir := t.TempDir()
	st, err := manifest.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := results.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, "x", 2)
	if err := st.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	c := New(Config{LeaseTTL: time.Minute, Store: st, Results: rs})
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	sum, err := manifest.Sum(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Plans()) != 1 || !ok2(rs, sum) {
		t.Fatalf("plan not mirrored on Add: %+v", rs.Plans())
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	ls, err := client.Lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease {
		t.Fatalf("lease = (%+v, %v)", ls, err)
	}
	if err := client.PostResult(ctx, ResultRequest{Worker: "w", Name: ls.Name, Index: ls.Index, Result: fakeResult(ls.Index)}); err != nil {
		t.Fatal(err)
	}
	if pts, _ := rs.Select(results.Query{Plan: sum}); len(pts) != 1 {
		t.Fatalf("results store holds %d points after post, want 1", len(pts))
	}

	// Kill the store mid-run: the next post must still succeed (journal
	// first) and the failure must surface as a counted metric.
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	ls2, err := client.Lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || ls2.Status != StatusLease {
		t.Fatalf("second lease = (%+v, %v)", ls2, err)
	}
	if err := client.PostResult(ctx, ResultRequest{Worker: "w", Name: ls2.Name, Index: ls2.Index, Result: fakeResult(ls2.Index)}); err != nil {
		t.Fatalf("post with broken results store rejected: %v", err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "nocsim_results_store_errors_total 1") {
		t.Fatalf("store failure not counted:\n%s", body)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := journalLines(t, st, "x"); len(lines) != 2 {
		t.Fatalf("journal holds %d lines, want both points: %v", len(lines), lines)
	}
}

// ok2 reports whether the store resolves the given fingerprint.
func ok2(rs *results.Store, sum string) bool {
	_, ok := rs.Resolve(sum)
	return ok
}
