package queue

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/nocsim/manifest"
)

// statusCode is the HTTP status of a rejected request, 0 for nil or a
// transport error.
func statusCode(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}

// deadline reads the coordinator's deadline of a lease.
func deadline(c *Coordinator, name string, i int) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[name].leases[i].deadline
}

// TestRenewalKeepsLeaseUntilItStops: a lease renewed every two thirds
// of its TTL survives fifteen TTLs without being handed out; once the
// renewals stop, it expires within one TTL, a late renewal does not
// revive it, and the point is re-issued. The old holder's renewals are
// then refused and leave the new holder's deadline alone.
func TestRenewalKeepsLeaseUntilItStops(t *testing.T) {
	const ttl = 3 * time.Second
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := New(Config{LeaseTTL: ttl, Clock: clock.Now})
	if err := c.Add(testManifest(t, "x", 1), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv, client := serve(t, c)
	ctx := context.Background()
	steal := func() LeaseResponse {
		t.Helper()
		ls, err := client.Lease(ctx, LeaseRequest{Worker: "v"})
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}

	ls, err := client.Lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease || ls.TTL != ttl {
		t.Fatalf("lease = (%+v, %v), want point 0 with TTL %s", ls, err, ttl)
	}
	renew := RenewRequest{Worker: "w", Name: "x", Index: 0}
	for held := time.Duration(0); held < 15*ttl; {
		clock.Advance(2 * ttl / 3)
		held += 2 * ttl / 3
		if err := client.Renew(ctx, renew); err != nil {
			t.Fatalf("renewal %s after the grant: %v", held, err)
		}
		if got := steal(); got.Status != StatusWait {
			t.Fatalf("lease %s after the grant = %+v, want wait: a renewed lease was handed out", held, got)
		}
	}

	// The renewals stop. One TTL after the last, the lease is gone: a
	// renewal no longer revives it, and the point is re-issued.
	clock.Advance(ttl)
	if err := client.Renew(ctx, renew); statusCode(err) != http.StatusConflict {
		t.Fatalf("renewal one TTL after the last = %v, want 409", err)
	}
	if got := steal(); got.Status != StatusLease || got.Index != 0 || got.TTL != ttl {
		t.Fatalf("lease after the renewals stopped = %+v, want point 0 re-issued", got)
	}
	want := deadline(c, "x", 0)
	clock.Advance(ttl / 3)
	if err := client.Renew(ctx, renew); statusCode(err) != http.StatusConflict {
		t.Fatalf("the old holder's renewal = %v, want 409", err)
	}
	if got := deadline(c, "x", 0); !got.Equal(want) {
		t.Fatalf("the old holder's renewal moved the new holder's deadline from %v to %v", want, got)
	}
	if err := client.Renew(ctx, RenewRequest{Worker: "v", Name: "x", Index: 0}); err != nil {
		t.Fatalf("the new holder's renewal: %v", err)
	}
	if got := scrapeMetrics(t, srv.URL)["nocsim_leases_reissued_total"]; got != 1 {
		t.Errorf("nocsim_leases_reissued_total = %g, want 1", got)
	}
}

// TestRenewRejections: a renewal is refused with 409 once the point is
// posted or when another worker holds the lease, with 404 for an
// unknown manifest and with 400 for an index out of range. None of them
// touches the standing lease.
func TestRenewRejections(t *testing.T) {
	c := New(Config{})
	if err := c.Add(testManifest(t, "x", 2), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	_, client := serve(t, c)
	ctx := context.Background()

	if ls, err := client.Lease(ctx, LeaseRequest{Worker: "w"}); err != nil || ls.Index != 0 {
		t.Fatalf("lease = (%+v, %v), want point 0", ls, err)
	}
	if next := postNext(t, client, "w", "x", 0); next.Status != StatusLease || next.Index != 1 {
		t.Fatalf("reply to post 0 = %+v, want a lease on point 1", next)
	}
	want := deadline(c, "x", 1)
	for _, tc := range []struct {
		label string
		req   RenewRequest
		code  int
	}{
		{"after the post", RenewRequest{Worker: "w", Name: "x", Index: 0}, http.StatusConflict},
		{"by another worker", RenewRequest{Worker: "v", Name: "x", Index: 1}, http.StatusConflict},
		{"unknown manifest", RenewRequest{Worker: "w", Name: "nope", Index: 1}, http.StatusNotFound},
		{"index out of range", RenewRequest{Worker: "w", Name: "x", Index: 2}, http.StatusBadRequest},
		{"negative index", RenewRequest{Worker: "w", Name: "x", Index: -1}, http.StatusBadRequest},
	} {
		if err := client.Renew(ctx, tc.req); statusCode(err) != tc.code {
			t.Errorf("renewal %s = %v, want status %d", tc.label, err, tc.code)
		}
	}
	if got := deadline(c, "x", 1); !got.Equal(want) {
		t.Errorf("rejected renewals moved w's deadline from %v to %v", want, got)
	}
	if err := client.Renew(ctx, RenewRequest{Worker: "w", Name: "x", Index: 1}); err != nil {
		t.Errorf("w's renewal of the lease it holds: %v", err)
	}
}

// TestLostRenewReplyHarmless: a renewal whose reply is lost after the
// coordinator applied it has extended the lease all the same; the next
// renewal extends it again, and the point is journaled once.
func TestLostRenewReplyHarmless(t *testing.T) {
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, "x", 1)
	if err := st.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	const ttl = 3 * time.Second
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := New(Config{LeaseTTL: ttl, Store: st, Clock: clock.Now})
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv, client := serve(t, c)
	ctx := context.Background()

	ls, err := client.Lease(ctx, LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease {
		t.Fatalf("lease = (%+v, %v), want point 0", ls, err)
	}
	lossy := &Client{Base: srv.URL, HTTP: &http.Client{Transport: &dropFirstReply{path: "/v1/renew"}}}
	renew := RenewRequest{Worker: "w", Name: "x", Index: 0}
	clock.Advance(2 * ttl / 3)
	if err := lossy.Renew(ctx, renew); err == nil || statusCode(err) != 0 {
		t.Fatalf("renewal with its reply lost = %v, want a transport error", err)
	}
	clock.Advance(2 * ttl / 3) // past the grant's deadline, inside the renewed one
	if got, err := client.Lease(ctx, LeaseRequest{Worker: "v"}); err != nil || got.Status != StatusWait {
		t.Fatalf("lease after the lost reply = (%+v, %v), want wait: the renewal was applied", got, err)
	}
	if err := lossy.Renew(ctx, renew); err != nil {
		t.Fatalf("renewal after the lost reply: %v", err)
	}
	if err := client.PostResult(ctx, ResultRequest{Worker: "w", Name: "x", Index: 0, Sum: ls.Sum, Result: fakeResult(0)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := journalLines(t, st, "x"); len(lines) != 1 {
		t.Fatalf("journal holds %d lines, want 1: %v", len(lines), lines)
	}
}

// renewPaced serves c, whose fake clock moves only here: every accepted
// renewal advances it by nine tenths of the TTL. Each advance follows
// the renewal that restarted the TTL, so no renewed lease can expire,
// however the host schedules the worker; and a point renewed k times
// computes for 0.9·k TTLs of coordinator time. After every advance a
// thief asks for a lease: with MaxLeases 1 it can only be granted one
// that expired. Each result reply is held back for hold, so a worker
// that kept renewing during its post would be seen doing it.
type renewPaced struct {
	c     *Coordinator
	h     http.Handler
	clock *fakeClock
	ttl   time.Duration
	hold  time.Duration

	mu       sync.Mutex
	renewals map[int]int // accepted renewals, by point
	posted   map[int]bool
	late     []int // points renewed after their post was accepted
	stolen   []LeaseResponse
}

func (p *renewPaced) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Index int `json:"index"`
	}
	if r.URL.Path == "/v1/renew" || r.URL.Path == "/v1/result" {
		body, err := io.ReadAll(r.Body)
		if err != nil || json.Unmarshal(body, &req) != nil {
			http.Error(w, "unreadable body", http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	p.mu.Lock()
	switch r.URL.Path {
	case "/v1/renew":
		if p.posted[req.Index] {
			p.late = append(p.late, req.Index)
		}
		if rec.Code == http.StatusNoContent {
			p.renewals[req.Index]++
			p.clock.Advance(9 * p.ttl / 10)
			if ls, err := p.c.Lease(LeaseRequest{Worker: "thief"}); err == nil && ls.Status == StatusLease {
				p.stolen = append(p.stolen, ls)
			}
		}
	case "/v1/result":
		if rec.Code < 300 {
			p.posted[req.Index] = true
		}
	}
	p.mu.Unlock()
	if r.URL.Path == "/v1/result" {
		time.Sleep(p.hold)
	}
	relay(w, rec, rec.Body.Bytes())
}

// TestWorkerRenewsLongPoints: a Worker whose points each compute for
// several TTLs keeps every lease by renewing it, so the manifest drains
// with nothing re-issued and one journal line a point; it renews only
// while a point computes, never after posting it. The coordinator's
// clock moves only with accepted renewals (renewPaced), and a point
// computes for tens of renewal intervals, so neither a slow nor a fast
// host can make the test flake.
func TestWorkerRenewsLongPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const points, ttl = 3, 3 * time.Millisecond
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, "x", points)
	if err := st.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := New(Config{LeaseTTL: ttl, MaxLeases: 1, Store: st, Clock: clock.Now})
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	p := &renewPaced{c: c, h: c.Handler(), clock: clock, ttl: ttl, hold: 3 * ttl,
		renewals: map[int]int{}, posted: map[int]bool{}}
	srv := httptest.NewServer(p)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &Worker{Client: &Client{Base: srv.URL}, ID: "w", Workers: 1, Poll: 20 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := scrapeMetrics(t, srv.URL)["nocsim_leases_reissued_total"]; got != 0 {
		t.Errorf("nocsim_leases_reissued_total = %g, want 0", got)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.stolen) != 0 {
		t.Errorf("the thief was granted %+v: a renewed lease expired", p.stolen)
	}
	if len(p.late) != 0 {
		t.Errorf("points %v were renewed after their post", p.late)
	}
	t.Logf("accepted renewals by point: %v", p.renewals)
	for i := 0; i < points; i++ {
		if n := p.renewals[i]; n < 4 {
			t.Errorf("point %d was renewed %d times, want at least 4 (3.6 TTLs of computing)", i, n)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := journalLines(t, st, "x"); len(lines) != points {
		t.Fatalf("journal holds %d lines, want %d: %v", len(lines), points, lines)
	}
}
