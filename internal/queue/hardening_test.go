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
// configured, every route — leases, posts, renewals, status, manifests,
// points and /metrics alike — refuses requests with a missing or wrong
// token and serves requests with the right one.
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
		{http.MethodPost, "/v1/renew", `{"worker":"w","name":"x","index":0}`},
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

// TestOversizedBodiesRefused: a lease request, a renewal or a result
// posted with a body over the cap is refused with a 4xx before it is
// decoded, and leaves no lease and no point behind.
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
		{"/v1/renew", `{"name":"x","index":0,"worker":"` + pad + `"}`},
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

// TestRequestBodiesReadWhole: a body is one JSON value, with or without
// a Content-Length. Trailing white space is fine, any other trailing
// byte is a 400, and a body of unannounced length is cut off at maxBody
// like an announced one.
func TestRequestBodiesReadWhole(t *testing.T) {
	c := New(Config{})
	if err := c.Add(testManifest(t, "x", 2), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	for _, tc := range []struct {
		body    string
		chunked bool
		want    int
	}{
		{`{"worker":"w"}`, false, http.StatusOK},
		{"{\"worker\":\"w\"}\n \t", true, http.StatusOK},
		{`{"worker":"w"} {}`, false, http.StatusBadRequest},
		{`{"worker":"w"}x`, true, http.StatusBadRequest},
		{`{"worker":"` + strings.Repeat("a", maxBody) + `"}`, true, http.StatusBadRequest},
	} {
		var body io.Reader = strings.NewReader(tc.body)
		if tc.chunked {
			body = io.MultiReader(body) // hides the length: ContentLength -1
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/lease", body)
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("POST /v1/lease %.40q (ContentLength %d): status %d, want %d", tc.body, req.ContentLength, rec.Code, tc.want)
		}
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
		`nocsim_lease_ttl_seconds{manifest="x"}`:                 1, // Config.LeaseTTL
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
