package queue

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// --- shared-token auth ---

// authedCoordinator is a sealed single-manifest coordinator behind an
// HTTP test server that demands the given token.
func authedCoordinator(t *testing.T, token string) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := New(Config{AuthToken: token})
	if err := c.Add(testManifest(t, "x", 2), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// TestAuthRejectsEveryRoute pins the 401 contract: with a token
// configured, every route — leases, posts, status, manifests, points and
// /metrics alike — refuses requests with a missing or wrong token and
// serves requests with the right one.
func TestAuthRejectsEveryRoute(t *testing.T) {
	const token = "s3cret"
	_, srv := authedCoordinator(t, token)

	routes := []struct {
		method, path, body string
	}{
		{http.MethodGet, "/v1/manifests", ""},
		{http.MethodGet, "/v1/manifest/x", ""},
		{http.MethodPost, "/v1/lease", `{"worker":"w"}`},
		{http.MethodPost, "/v1/result", `{"worker":"w","name":"x","index":0,"result":{}}`},
		{http.MethodGet, "/v1/points/x", ""},
		{http.MethodGet, "/v1/status/x", ""},
		{http.MethodGet, "/metrics", ""},
	}
	cases := []struct {
		label  string
		header string
		reject bool
	}{
		{"no credentials", "", true},
		{"wrong token", "Bearer wrong", true},
		{"malformed scheme", "Basic " + token, true},
		{"right token", "Bearer " + token, false},
	}
	for _, rt := range routes {
		for _, tc := range cases {
			var rd io.Reader
			if rt.body != "" {
				rd = strings.NewReader(rt.body)
			}
			req, err := http.NewRequest(rt.method, srv.URL+rt.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			if tc.header != "" {
				req.Header.Set("Authorization", tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if tc.reject && resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s %s with %s: status %d, want 401", rt.method, rt.path, tc.label, resp.StatusCode)
			}
			if !tc.reject && resp.StatusCode == http.StatusUnauthorized {
				t.Errorf("%s %s with %s: got 401, want authorized", rt.method, rt.path, tc.label)
			}
		}
	}
}

// TestOversizedBodiesRefused: a lease request or a result posted with a
// body over the cap is refused with a 4xx before it is decoded, and
// leaves no lease and no point behind.
func TestOversizedBodiesRefused(t *testing.T) {
	c := New(Config{})
	if err := c.Add(testManifest(t, "x", 2), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	pad := strings.Repeat("a", maxBody)
	for _, rt := range []struct{ path, body string }{
		{"/v1/lease", `{"worker":"` + pad + `"}`},
		{"/v1/result", `{"name":"x","index":0,"result":{},"worker":"` + pad + `"}`},
	} {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, strings.NewReader(rt.body)))
		if rec.Code < 400 || rec.Code >= 500 {
			t.Errorf("POST %s with a %d-byte body: status %d, want 4xx", rt.path, len(rt.body), rec.Code)
		}
	}
	if st, _ := c.Status("x"); st.Leased != 0 || st.Done != 0 {
		t.Fatalf("status after oversized requests = %+v, want no lease and no point", st)
	}
}

// TestClientTokenRoundTrip drives the authed API through the Client: a
// token-carrying client leases, posts and reads status exactly as
// against an open coordinator.
func TestClientTokenRoundTrip(t *testing.T) {
	c, srv := authedCoordinator(t, "s3cret")
	client := &Client{Base: srv.URL, Token: "s3cret"}
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		ls, err := client.Lease(ctx, LeaseRequest{Worker: "w"})
		if err != nil || ls.Status != StatusLease {
			t.Fatalf("authed lease = (%+v, %v), want granted", ls, err)
		}
		if err := client.PostResult(ctx, ResultRequest{Worker: "w", Name: "x", Index: ls.Index, Sum: ls.Sum, Result: fakeResult(ls.Index)}); err != nil {
			t.Fatalf("authed post: %v", err)
		}
	}
	st, err := fetchStatus(ctx, client, "x")
	if err != nil || !st.Complete {
		t.Fatalf("authed status = (%+v, %v), want complete", st, err)
	}
	if !c.Complete() {
		t.Fatal("coordinator incomplete after authed drain")
	}
}

// TestUnauthorizedIsFatal pins the fail-fast contract: a worker (and a
// WaitManifest poller) with wrong credentials surfaces ErrUnauthorized
// immediately instead of burning its retry budget against requests the
// coordinator will never accept.
func TestUnauthorizedIsFatal(t *testing.T) {
	_, srv := authedCoordinator(t, "s3cret")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Poll and MaxErrors are hostile to retries: if the 401 were treated
	// as transient, the worker would sleep an hour before its second try
	// and this test would time out rather than pass.
	w := &Worker{
		Client:    &Client{Base: srv.URL, Token: "wrong"},
		ID:        "w",
		Workers:   1,
		Poll:      time.Hour,
		MaxErrors: 1000,
	}
	start := time.Now()
	err := w.Run(ctx)
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("worker with wrong token returned %v, want ErrUnauthorized", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("worker took %s to fail, want immediate", elapsed)
	}

	if _, err := (&Client{Base: srv.URL}).WaitManifest(ctx, "x", time.Hour); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("WaitManifest without token returned %v, want ErrUnauthorized", err)
	}
}

// --- adaptive lease TTLs ---

// TestTTLEstimator feeds the estimator deterministic latency streams and
// checks the granted TTLs: the configured fallback before warmup, then
// safety × (mean + 2σ) of the observed latencies, clamped at the floor
// and ceiling.
func TestTTLEstimator(t *testing.T) {
	const (
		fallback = 60 * time.Second
		floor    = 2 * time.Second
		ceil     = 10 * time.Minute
	)
	t.Run("fallback before warmup", func(t *testing.T) {
		var e ttlEstimator
		for i := 0; i < ttlWarmup; i++ {
			if got := e.ttl(fallback, floor, ceil); got != fallback {
				t.Fatalf("ttl after %d samples = %s, want fallback %s", i, got, fallback)
			}
			e.observe(time.Second)
		}
		if got := e.ttl(fallback, floor, ceil); got == fallback {
			t.Fatalf("ttl after %d samples still the fallback, want adapted", ttlWarmup)
		}
	})
	t.Run("constant latency", func(t *testing.T) {
		// Constant 1 s latencies: mean 1, variance 0, so the TTL is
		// exactly safety × 1 s — way below the 60 s static flag.
		var e ttlEstimator
		for i := 0; i < ttlWarmup; i++ {
			e.observe(time.Second)
		}
		want := time.Duration(ttlSafety * float64(time.Second))
		if got := e.ttl(fallback, floor, ceil); got != want {
			t.Fatalf("ttl for constant 1s latency = %s, want %s", got, want)
		}
	})
	t.Run("clamp at floor", func(t *testing.T) {
		var e ttlEstimator
		for i := 0; i < ttlWarmup; i++ {
			e.observe(100 * time.Millisecond) // 3×0.1s = 0.3s, below the floor
		}
		if got := e.ttl(fallback, floor, ceil); got != floor {
			t.Fatalf("ttl for 100ms latency = %s, want floor %s", got, floor)
		}
	})
	t.Run("clamp at ceiling", func(t *testing.T) {
		var e ttlEstimator
		for i := 0; i < ttlWarmup; i++ {
			e.observe(400 * time.Second) // 3×400s = 1200s, above the ceiling
		}
		if got := e.ttl(fallback, floor, ceil); got != ceil {
			t.Fatalf("ttl for 400s latency = %s, want ceiling %s", got, ceil)
		}
	})
	t.Run("worst latency bounds a mixed manifest", func(t *testing.T) {
		// Quick warmup, one heavy point, then a long run of quick points:
		// the EWMA drifts back toward the quick majority, but the TTL must
		// stay above the (slowly decaying) 30 s witness — the next heavy
		// point's lease may not expire mid-compute.
		var e ttlEstimator
		for i := 0; i < ttlWarmup; i++ {
			e.observe(time.Second)
		}
		e.observe(30 * time.Second)
		for i := 0; i < 30; i++ {
			e.observe(time.Second)
		}
		got := e.ttl(fallback, floor, ceil)
		if got < 10*time.Second {
			t.Fatalf("ttl after quick run-out = %s, want >= 10s (bounded by the 30s witness)", got)
		}
		if got >= 30*time.Second {
			t.Fatalf("ttl after quick run-out = %s, want the witness decayed below 30s", got)
		}
	})
	t.Run("variance widens the ttl", func(t *testing.T) {
		jittery, steady := ttlEstimator{}, ttlEstimator{}
		for i := 0; i < 4*ttlWarmup; i++ {
			steady.observe(10 * time.Second)
			if i%2 == 0 {
				jittery.observe(5 * time.Second)
			} else {
				jittery.observe(15 * time.Second)
			}
		}
		// Same mean, but the jittery stream must get more headroom.
		if j, s := jittery.ttl(fallback, floor, ceil), steady.ttl(fallback, floor, ceil); j <= s {
			t.Fatalf("jittery ttl %s <= steady ttl %s, want wider", j, s)
		}
	})
}

// TestAdaptiveLeaseDeadlines is the coordinator-level acceptance test:
// lease deadlines start at the static fallback and, once enough point
// latencies are observed, track safety × observed latency instead of the
// flag — so a 60 s -lease-ttl turns into ~6 s deadlines on a manifest
// whose points take 2 s.
func TestAdaptiveLeaseDeadlines(t *testing.T) {
	const fallback = 60 * time.Second
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := New(Config{LeaseTTL: fallback, Clock: clock.Now})
	if err := c.Add(testManifest(t, "x", ttlWarmup+2), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()

	// Warmup: every point takes exactly 2 s from lease to post.
	for i := 0; i < ttlWarmup; i++ {
		ls, err := c.Lease(LeaseRequest{Worker: "w"})
		if err != nil || ls.Status != StatusLease {
			t.Fatalf("lease %d = (%+v, %v), want granted", i, ls, err)
		}
		if got := ls.Deadline.Sub(clock.Now()); got != fallback {
			t.Fatalf("pre-warmup lease %d deadline = now+%s, want the static fallback %s", i, got, fallback)
		}
		clock.Advance(2 * time.Second)
		if err := c.PostResult(ResultRequest{Worker: "w", Name: "x", Index: ls.Index, Result: fakeResult(ls.Index)}); err != nil {
			t.Fatal(err)
		}
	}

	// Post-warmup the deadline must track the observed 2 s latency
	// (safety × 2 s), not the 60 s flag.
	want := time.Duration(ttlSafety * 2 * float64(time.Second))
	ls, err := c.Lease(LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease {
		t.Fatalf("post-warmup lease = (%+v, %v), want granted", ls, err)
	}
	if got := ls.Deadline.Sub(clock.Now()); got != want {
		t.Fatalf("post-warmup deadline = now+%s, want adapted %s (not the %s flag)", got, want, fallback)
	}
	if st, _ := c.Status("x"); st.TTLSeconds != want.Seconds() {
		t.Fatalf("status ttl_seconds = %g, want %g", st.TTLSeconds, want.Seconds())
	}
}

// TestSlowPointStillFeedsEstimator pins the recovery property: a point
// whose lease expires (and is even re-issued to another worker) before
// its first post lands still contributes its full first-grant-to-post
// latency to the estimator. If only live leases were measured, a
// too-short TTL estimate would expire every slow point's lease before
// the post, never sample the slow latency, and lock in forever —
// double-computing exactly the heavy points adaptive TTLs exist to
// protect.
func TestSlowPointStillFeedsEstimator(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := New(Config{LeaseTTL: time.Second, Clock: clock.Now}) // far below the real 10 s latency
	if err := c.Add(testManifest(t, "x", ttlWarmup+1), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	for i := 0; i < ttlWarmup; i++ {
		ls, err := c.Lease(LeaseRequest{Worker: "slow"})
		if err != nil || ls.Status != StatusLease {
			t.Fatalf("lease %d = (%+v, %v), want granted", i, ls, err)
		}
		clock.Advance(2 * time.Second) // the 1 s lease expires mid-compute
		re, err := c.Lease(LeaseRequest{Worker: "fast"})
		if err != nil || re.Status != StatusLease || re.Index != ls.Index {
			t.Fatalf("re-issue %d = (%+v, %v), want point %d again", i, re, err, ls.Index)
		}
		clock.Advance(8 * time.Second) // the slow worker finally posts, 10 s after its grant
		if err := c.PostResult(ResultRequest{Worker: "slow", Name: "x", Index: ls.Index, Result: fakeResult(ls.Index)}); err != nil {
			t.Fatal(err)
		}
	}
	// Every sample was 10 s first-grant-to-post, so the adapted TTL must
	// be safety × 10 s — it climbed far above the hopeless 1 s flag.
	want := time.Duration(ttlSafety * 10 * float64(time.Second))
	ls, err := c.Lease(LeaseRequest{Worker: "w"})
	if err != nil || ls.Status != StatusLease {
		t.Fatalf("post-warmup lease = (%+v, %v), want granted", ls, err)
	}
	if got := ls.Deadline.Sub(clock.Now()); got != want {
		t.Fatalf("post-warmup deadline = now+%s, want %s (learned from expired leases)", got, want)
	}
}

// --- /metrics ---

// scrapeMetrics GETs /metrics and returns the series as "name{labels}" ->
// value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q, want text/plain", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[cut+1:], "%g", &v); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpoint drives a small scenario — two completions by one
// worker, one lease expiry and re-issue, one stale-plan rejection — and
// checks every advertised series reports it.
func TestMetricsEndpoint(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := New(Config{LeaseTTL: time.Second, Clock: clock.Now})
	if err := c.Add(testManifest(t, "x", 3), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	// w1 completes point 0 immediately.
	ls, err := client.Lease(ctx, LeaseRequest{Worker: "w1"})
	if err != nil || ls.Status != StatusLease {
		t.Fatalf("lease = (%+v, %v), want granted", ls, err)
	}
	if err := client.PostResult(ctx, ResultRequest{Worker: "w1", Name: "x", Index: ls.Index, Result: fakeResult(ls.Index)}); err != nil {
		t.Fatal(err)
	}
	// w2 leases point 1 and dies; the lease expires and w1 recomputes it.
	if ls, err = client.Lease(ctx, LeaseRequest{Worker: "w2"}); err != nil || ls.Index != 1 {
		t.Fatalf("w2 lease = (%+v, %v), want point 1", ls, err)
	}
	clock.Advance(2 * time.Second)
	if ls, err = client.Lease(ctx, LeaseRequest{Worker: "w1"}); err != nil || ls.Index != 1 {
		t.Fatalf("re-issue lease = (%+v, %v), want point 1 again", ls, err)
	}
	if err := client.PostResult(ctx, ResultRequest{Worker: "w1", Name: "x", Index: 1, Result: fakeResult(1)}); err != nil {
		t.Fatal(err)
	}
	// A worker posting a result computed against another plan is counted.
	if err := client.PostResult(ctx, ResultRequest{Worker: "w3", Name: "x", Index: 2, Sum: "deadbeef", Result: fakeResult(2)}); err == nil {
		t.Fatal("stale-plan post accepted, want rejection")
	}

	got := scrapeMetrics(t, srv.URL)
	want := map[string]float64{
		"nocsim_leases_outstanding":                              0,
		"nocsim_points_completed_total":                          2,
		"nocsim_leases_reissued_total":                           1,
		"nocsim_posts_rejected_stale_total":                      1,
		`nocsim_manifest_points_total{manifest="x"}`:             3,
		`nocsim_manifest_points_done{manifest="x"}`:              2,
		`nocsim_lease_ttl_seconds{manifest="x"}`:                 1, // pre-warmup: the configured fallback
		`nocsim_worker_points_completed_total{worker="w1"}`:      2,
		`nocsim_worker_points_completed_total{worker="w2"}`:      0,
		`nocsim_worker_last_seen_timestamp_seconds{worker="w2"}`: 1000, // leased at t0, never seen again
		`nocsim_worker_last_seen_timestamp_seconds{worker="w1"}`: 1002,
	}
	for series, val := range want {
		g, ok := got[series]
		if !ok {
			t.Errorf("series %s missing from /metrics", series)
			continue
		}
		if g != val {
			t.Errorf("%s = %g, want %g", series, g, val)
		}
	}
	// Both completions happened inside the rate window.
	if rate, ok := got["nocsim_points_per_second"]; !ok || math.Abs(rate-2.0/rateWindowSize.Seconds()) > 1e-9 {
		t.Errorf("nocsim_points_per_second = %g (present %v), want %g", rate, ok, 2.0/rateWindowSize.Seconds())
	}
}

// TestMetricsRateWindowSlides pins the windowed (not lifetime) nature of
// the points/s gauge: completions older than the window stop counting.
func TestMetricsRateWindowSlides(t *testing.T) {
	now := time.Unix(1000, 0)
	r := rateWindow{window: rateWindowSize}
	r.observe(now)
	r.observe(now.Add(time.Second))
	if got := r.perSecond(now.Add(2 * time.Second)); got != 2.0/rateWindowSize.Seconds() {
		t.Fatalf("rate inside window = %g, want %g", got, 2.0/rateWindowSize.Seconds())
	}
	if got := r.perSecond(now.Add(rateWindowSize + 2*time.Second)); got != 0 {
		t.Fatalf("rate after window slid past = %g, want 0", got)
	}
}
