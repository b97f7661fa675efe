package queue

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/nocsim"
	"repro/nocsim/manifest"
)

// serve puts c behind an HTTP test server and returns a client for it.
func serve(t *testing.T, c *Coordinator) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return srv, &Client{Base: srv.URL}
}

// postNext posts result i of manifest name over HTTP as worker, asking
// for its next lease in the same exchange.
func postNext(t *testing.T, client *Client, worker, name string, i int) LeaseResponse {
	t.Helper()
	next, err := client.postRetry(context.Background(), &ResultRequest{
		Worker: worker, Name: name, Index: i, Result: fakeResult(i), Next: &LeaseRequest{Worker: worker},
	}, 1)
	if err != nil {
		t.Fatalf("post %s point %d: %v", name, i, err)
	}
	return next
}

// TestRejectedPostNotRetried: a post no retry can mend — a stale plan
// sum, an unknown manifest, an index out of range — is answered 4xx,
// the client gives up after one attempt instead of backing off through
// five, and a stale post is counted once.
func TestRejectedPostNotRetried(t *testing.T) {
	c := New(Config{})
	if err := c.Add(testManifest(t, "x", 2), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv, client := serve(t, c)
	for _, tc := range []struct {
		label string
		req   ResultRequest
		code  int
	}{
		{"stale plan", ResultRequest{Worker: "w", Name: "x", Index: 0, Sum: "deadbeef"}, http.StatusConflict},
		{"unknown manifest", ResultRequest{Worker: "w", Name: "nope", Index: 0}, http.StatusNotFound},
		{"index out of range", ResultRequest{Worker: "w", Name: "x", Index: 2}, http.StatusBadRequest},
	} {
		tc.req.Result = fakeResult(tc.req.Index)
		start := time.Now()
		err := client.PostResultRetry(context.Background(), tc.req, 0)
		took := time.Since(start)
		var se *statusError
		if !errors.As(err, &se) || se.code != tc.code {
			t.Errorf("%s: post error %v, want status %d", tc.label, err, tc.code)
		}
		if took >= 100*time.Millisecond {
			t.Errorf("%s: post took %v, want one attempt and no backoff", tc.label, took)
		}
	}
	if got := scrapeMetrics(t, srv.URL)["nocsim_posts_rejected_stale_total"]; got != 1 {
		t.Errorf("nocsim_posts_rejected_stale_total = %g, want 1", got)
	}
	if st, _ := c.Status("x"); st.Done != 0 {
		t.Fatalf("a rejected post was recorded: %+v", st)
	}
}

// TestResultReplyCarriesNextLease: a post that asks for its next lease
// is answered with it — a lease, a wait when the lease cap is reached
// or the coordinator is quiesced, done once the scope is complete —
// and a post that does not ask still gets 204.
func TestResultReplyCarriesNextLease(t *testing.T) {
	c := New(Config{MaxLeases: 1})
	if err := c.Add(testManifest(t, "x", 4), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv, client := serve(t, c)

	if next := postNext(t, client, "w", "x", 0); next.Status != StatusLease || next.Name != "x" || next.Index != 1 || next.Sum == "" {
		t.Fatalf("reply to post 0 = %+v, want a lease on point 1", next)
	}
	// w holds point 1, the only lease the cap allows: a post of point 2
	// is recorded, and its reply says wait.
	if next := postNext(t, client, "v", "x", 2); next.Status != StatusWait {
		t.Fatalf("reply at the lease cap = %+v, want wait", next)
	}
	if st, _ := c.Status("x"); st.Done != 2 || st.Leased != 1 {
		t.Fatalf("status after the capped post = %+v, want 2 done and 1 leased", st)
	}

	// No next: 204, as before the field existed.
	body, err := json.Marshal(ResultRequest{Worker: "w", Name: "x", Index: 1, Result: fakeResult(1)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post without next: status %d, want 204", resp.StatusCode)
	}

	if next := postNext(t, client, "w", "x", 3); next.Status != StatusDone {
		t.Fatalf("reply to the last post = %+v, want done", next)
	}

	q := New(Config{})
	if err := q.Add(testManifest(t, "x", 2), nil); err != nil {
		t.Fatal(err)
	}
	q.Seal()
	q.Quiesce()
	_, qclient := serve(t, q)
	if next := postNext(t, qclient, "w", "x", 0); next.Status != StatusWait {
		t.Fatalf("reply from a quiesced coordinator = %+v, want wait", next)
	}
}

// TestFailedJournalGrantsNoLease: a post that fails to journal is
// answered 500 and hands out no lease, even though it asked for one.
func TestFailedJournalGrantsNoLease(t *testing.T) {
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, "x", 2)
	if err := st.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Store: st})
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	// Close the journal's file under the coordinator: every append fails.
	if err := c.jobs["x"].journal.Close(); err != nil {
		t.Fatal(err)
	}
	_, client := serve(t, c)

	next, err := client.postRetry(context.Background(), &ResultRequest{
		Worker: "w", Name: "x", Index: 0, Result: fakeResult(0), Next: &LeaseRequest{Worker: "w"},
	}, 1)
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusInternalServerError {
		t.Fatalf("post to a broken journal: error %v, want status 500", err)
	}
	if next.Status != "" {
		t.Fatalf("failed post carried %+v, want no lease", next)
	}
	if st, _ := c.Status("x"); st.Done != 0 || st.Leased != 0 {
		t.Fatalf("status after the failed post = %+v, want nothing done or leased", st)
	}
}

// stripJSON drops the named top-level fields from a JSON object; other
// bytes come back unchanged.
func stripJSON(data []byte, fields ...string) []byte {
	var obj map[string]json.RawMessage
	if json.Unmarshal(data, &obj) != nil {
		return data
	}
	for _, f := range fields {
		delete(obj, f)
	}
	out, _ := json.Marshal(obj)
	return out
}

// oldCoordinator answers like a coordinator that predates both
// ResultRequest.Next and renewal (when strip is set): it drops next from
// every post before c sees it and ttl_ns from every lease it hands out.
// It also counts the requests it passes on, by path.
type oldCoordinator struct {
	next  http.Handler
	strip bool
	mu    sync.Mutex
	calls map[string]int
}

func (s *oldCoordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.calls[r.URL.Path]++
	s.mu.Unlock()
	if !s.strip {
		s.next.ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/v1/result" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		data := stripJSON(body, "next")
		r.Body = io.NopCloser(bytes.NewReader(data))
		r.ContentLength = int64(len(data))
	}
	rec := httptest.NewRecorder()
	s.next.ServeHTTP(rec, r)
	relay(w, rec, stripJSON(rec.Body.Bytes(), "ttl_ns"))
}

// relay writes a recorded reply to w, with body in place of its own: its
// headers but the Content-Length, which was the length of the reply's own
// body.
func relay(w http.ResponseWriter, rec *httptest.ResponseRecorder, body []byte) {
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.Header().Del("Content-Length")
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestWorkerDrainsOldCoordinator: a Worker drains a coordinator that
// ignores next (it answers every post 204) by leasing each point on its
// own, and writes the same journal as against one that carries the
// lease in the post's reply — which needs one /v1/lease request for the
// whole drain. Either way each point is posted once: a 204 is an
// answer, not a reply to retry. Its leases carry no TTL, so the worker
// sends no renewal, while against the current coordinator it renews
// points that outlast a third of the TTL.
func TestWorkerDrainsOldCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const points = 3
	drain := func(strip bool) (journal map[int]nocsim.Result, leases, posts, renewals int) {
		st, err := manifest.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m := testManifest(t, "x", points)
		if err := st.SaveManifest(m); err != nil {
			t.Fatal(err)
		}
		// Each point computes for tens of milliseconds: many renewal
		// intervals. Nothing else leases, so a late renewal costs nothing.
		c := New(Config{LeaseTTL: 3 * time.Millisecond, Store: st})
		if err := c.Add(m, nil); err != nil {
			t.Fatal(err)
		}
		c.Seal()
		h := &oldCoordinator{next: c.Handler(), strip: strip, calls: map[string]int{}}
		srv := httptest.NewServer(h)
		defer srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		w := &Worker{Client: &Client{Base: srv.URL}, ID: "w", Workers: 1, Poll: 20 * time.Millisecond}
		if err := w.Run(ctx); err != nil {
			t.Fatalf("drain (strip next %v): %v", strip, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if lines := journalLines(t, st, "x"); len(lines) != points {
			t.Fatalf("strip next %v: journal holds %d lines, want %d", strip, len(lines), points)
		}
		have, err := st.LoadPoints("x")
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range have {
			r.Meta.WallTime = 0 // the host's timing, not the point
			have[i] = r
		}
		return have, h.calls["/v1/lease"], h.calls["/v1/result"], h.calls["/v1/renew"]
	}
	newJournal, newLeases, newPosts, newRenewals := drain(false)
	oldJournal, oldLeases, oldPosts, oldRenewals := drain(true)
	if newPosts != points || oldPosts != points {
		t.Errorf("%d and %d result posts (carried lease, old coordinator), want %d each", newPosts, oldPosts, points)
	}
	if !reflect.DeepEqual(newJournal, oldJournal) {
		t.Fatalf("journals differ:\ncarried lease: %+v\nold coordinator: %+v", newJournal, oldJournal)
	}
	if newLeases != 1 {
		t.Errorf("%d /v1/lease requests with carried leases, want 1 (the first point)", newLeases)
	}
	if oldLeases != points+1 {
		t.Errorf("%d /v1/lease requests against the old coordinator, want %d (one a point, then done)", oldLeases, points+1)
	}
	if newRenewals == 0 || oldRenewals != 0 {
		t.Errorf("%d and %d renewals (current, old coordinator), want some and none", newRenewals, oldRenewals)
	}
}

// TestAdaptiveLastPostCarriesChildLease: the post that completes an
// adaptive parent registers its refinement (refineLocked), and its reply
// already carries a lease on the child.
func TestAdaptiveLastPostCarriesChildLease(t *testing.T) {
	c := New(Config{})
	parent := adaptiveManifest(t, "x", 5, 2)
	if err := c.Add(parent, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	n := parent.NumPoints()
	knee := func(i int) nocsim.Result { return kneeResult(i, n) }
	post(t, c, parent, 0, n-1, knee)
	_, client := serve(t, c)

	next, err := client.postRetry(context.Background(), &ResultRequest{
		Worker: "w", Name: "x", Index: n - 1, Result: knee(n - 1), Next: &LeaseRequest{Worker: "w"},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	child := wantChild(t, parent)
	if next.Status != StatusLease || next.Name != child.Name || next.Index != 0 {
		t.Fatalf("reply to the parent's last post = %+v, want a lease on %s point 0", next, child.Name)
	}
}

// dropFirstReply delivers the first request to path and then loses its
// reply, as a connection cut after the coordinator applied the request
// would.
type dropFirstReply struct {
	path    string
	mu      sync.Mutex
	dropped bool
}

func (d *dropFirstReply) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Path != d.path {
		return resp, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dropped {
		return resp, nil
	}
	d.dropped = true
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil, errors.New("reply lost")
}

// TestLostReplyRegrantsSameLease: a post whose reply is lost after the
// coordinator applied it is retried; the retry is handed the lease the
// lost reply carried, not a second one, so no lease is left to expire
// and be re-issued, and the point is journaled once.
func TestLostReplyRegrantsSameLease(t *testing.T) {
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, "x", 4)
	if err := st.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := New(Config{LeaseTTL: time.Second, Store: st, Clock: clock.Now})
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv, client := serve(t, c)
	ctx := context.Background()

	ls, err := client.Lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease || ls.Index != 0 {
		t.Fatalf("first lease = (%+v, %v), want point 0", ls, err)
	}
	lossy := &Client{Base: srv.URL, HTTP: &http.Client{Transport: &dropFirstReply{path: "/v1/result"}}}
	next, err := lossy.postRetry(ctx, &ResultRequest{
		Worker: "w", Name: "x", Index: 0, Sum: ls.Sum, Result: fakeResult(0), Next: &LeaseRequest{Worker: "w"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next.Status != StatusLease || next.Index != 1 {
		t.Fatalf("retried post carried %+v, want the lost reply's lease on point 1", next)
	}
	if st, _ := c.Status("x"); st.Leased != 1 {
		t.Fatalf("%d leases outstanding after the retry, want 1: the lost reply's lease was granted twice", st.Leased)
	}
	// Another worker re-posting point 0 is a plain duplicate: it gets a
	// lease of its own, not w's.
	if other := postNext(t, client, "v", "x", 0); other.Status != StatusLease || other.Index != 2 {
		t.Fatalf("another worker's duplicate post carried %+v, want a lease on point 2", other)
	}

	// Drain the rest; once every deadline has passed nothing is re-issued.
	postNext(t, client, "w", "x", 1)
	postNext(t, client, "v", "x", 2)
	if last := postNext(t, client, "w", "x", 3); last.Status != StatusDone {
		t.Fatalf("reply to the last post = %+v, want done", last)
	}
	clock.Advance(time.Minute)
	if ls, err := client.Lease(ctx, LeaseRequest{Worker: "w"}); err != nil || ls.Status != StatusDone {
		t.Fatalf("lease after the drain = (%+v, %v), want done", ls, err)
	}
	if got := scrapeMetrics(t, srv.URL)["nocsim_leases_reissued_total"]; got != 0 {
		t.Errorf("nocsim_leases_reissued_total = %g, want 0", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := journalLines(t, st, "x"); len(lines) != 4 {
		t.Fatalf("journal holds %d lines, want one a point: %v", len(lines), lines)
	}
}

// TestRegrantedLeaseGetsAFullTTL: a retry late in postRetry's backoff is
// handed the lease its lost reply carried with a deadline a full TTL from
// the retry, not from the lost reply: the worker first renews it a third
// of a TTL after it learns of it, and a lease that expired before then
// would be computed twice.
func TestRegrantedLeaseGetsAFullTTL(t *testing.T) {
	const ttl = 10 * time.Second
	m := testManifest(t, "x", 4)
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := New(Config{LeaseTTL: ttl, Clock: clock.Now})
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv, client := serve(t, c)
	ctx := context.Background()

	ls, err := client.Lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease || ls.Index != 0 {
		t.Fatalf("first lease = (%+v, %v), want point 0", ls, err)
	}
	post := ResultRequest{Worker: "w", Name: "x", Index: 0, Sum: ls.Sum, Result: fakeResult(0), Next: &LeaseRequest{Worker: "w"}}
	lossy := &Client{Base: srv.URL, HTTP: &http.Client{Transport: &dropFirstReply{path: "/v1/result"}}}
	if _, err := lossy.postRetry(ctx, &post, 1); err == nil {
		t.Fatal("the post's reply was not lost")
	}
	clock.Advance(ttl * 9 / 10)
	next, err := client.postRetry(ctx, &post, 1)
	if err != nil || next.Status != StatusLease || next.Index != 1 || next.TTL != ttl {
		t.Fatalf("retried post carried (%+v, %v), want the lost reply's lease on point 1 for %v", next, err, ttl)
	}
	clock.Advance(ttl * 2 / 10)
	if other, err := client.Lease(ctx, LeaseRequest{Worker: "v"}); err != nil || other.Status != StatusLease || other.Index != 2 {
		t.Fatalf("another worker's lease = (%+v, %v), want point 2: w's regranted lease on point 1 expired", other, err)
	}
	if got := scrapeMetrics(t, srv.URL)["nocsim_leases_reissued_total"]; got != 0 {
		t.Errorf("nocsim_leases_reissued_total = %g, want 0", got)
	}
}
