package queue

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/nocsim"
	"repro/nocsim/manifest"
)

// richResult is a Result with the optional parts of its JSON form set
// and strings that need json.Marshal's escapes, HTML's included.
func richResult(i int) nocsim.Result {
	r := fakeResult(i)
	r.Scenario = nocsim.Scenario{
		Mesh:        nocsim.Mesh{Width: 4, Height: 4, VCs: 2, BufDepth: 4, PacketSize: 5, Routing: nocsim.RoutingXY},
		Pattern:     "a\"b\\c\n<&>\u2028é",
		Source:      &nocsim.SourceSpec{Kind: "mmpp", BurstRatio: 4, BurstLen: 50},
		Islands:     []nocsim.Island{{X0: 0, Y0: 0, X1: 1, Y1: 1, Speed: 0.5}},
		Load:        0.1 * float64(i+1),
		Policy:      nocsim.DMSD,
		Calibration: &nocsim.Calibration{SaturationRate: 0.42, LambdaMax: 0.378, TargetDelayNs: 1.5e-7},
		FNodeHz:     1e9, FMinHz: 3.33e8, FMaxHz: 1e9, Seed: -7,
	}
	r.Trace = []nocsim.TraceSample{{TimeNs: 1e4, FreqHz: 1e9, Volts: 1, DelayNs: 5e-324}}
	r.Meta.WallTime = 3 * time.Millisecond
	return r
}

// floatBits appends the bits of every float64 v holds, in field order:
// reflect.DeepEqual compares floats with ==, which takes -0 for 0.
func floatBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Pointer:
		if !v.IsNil() {
			out = floatBits(v.Elem(), out)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			out = floatBits(v.Field(i), out)
		}
	case reflect.Slice:
		for i := range v.Len() {
			out = floatBits(v.Index(i), out)
		}
	}
	return out
}

// same reports whether two decoded values are equal, float bits included.
func same(a, b any) bool {
	return reflect.DeepEqual(a, b) && slices.Equal(floatBits(reflect.ValueOf(a), nil), floatBits(reflect.ValueOf(b), nil))
}

// A capture is a server that records the last request body and
// Content-Length of each path and answers every request 204.
type capture struct {
	mu     sync.Mutex
	bodies map[string][]byte
	length map[string]string
}

func (c *capture) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.bodies[r.URL.Path] = data
	c.length[r.URL.Path] = r.Header.Get("Content-Length")
	c.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// TestPostBodyBytes: every body a Client posts is json.Marshal's encoding
// of the request, byte for byte and without a trailing newline, sent with
// its Content-Length.
func TestPostBodyBytes(t *testing.T) {
	cp := &capture{bodies: map[string][]byte{}, length: map[string]string{}}
	srv := httptest.NewServer(cp)
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()
	post := ResultRequest{Worker: "w<1>", Name: "x", Index: 3, Sum: "5eed", Result: richResult(3), Next: &LeaseRequest{Worker: "w<1>", Name: "x"}}
	lease := LeaseRequest{Worker: "w&1"}
	renew := RenewRequest{Worker: "w", Name: "x", Index: 2}
	for _, c := range []struct {
		path string
		v    any
		send func() error
	}{
		{"/v1/result", &post, func() error { _, err := client.postRetry(ctx, &post, 1); return err }},
		{"/v1/result", ResultRequest{Worker: "w", Name: "x", Result: fakeResult(0)}, func() error {
			return client.PostResult(ctx, ResultRequest{Worker: "w", Name: "x", Result: fakeResult(0)})
		}},
		{"/v1/lease", &lease, func() error { _, err := client.Lease(ctx, lease); return err }},
		{"/v1/renew", &renew, func() error { return client.Renew(ctx, renew) }},
	} {
		if err := c.send(); err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		want, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if got := cp.bodies[c.path]; !bytes.Equal(got, want) {
			t.Errorf("%s body:\n%s\nwant json.Marshal's:\n%s", c.path, got, want)
		}
		if got := cp.length[c.path]; got != strconv.Itoa(len(want)) {
			t.Errorf("%s Content-Length %q, want %d", c.path, got, len(want))
		}
	}
}

// TestReplyBytes: a JSON reply is json.NewEncoder(w).Encode's bytes,
// trailing newline included, with its Content-Length.
func TestReplyBytes(t *testing.T) {
	c := New(Config{LeaseTTL: time.Minute})
	if err := c.Add(testManifest(t, "x<&>", 3), nil); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	do := func(method, path string, v any) *httptest.ResponseRecorder {
		var body io.Reader
		if v != nil {
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			body = bytes.NewReader(data)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
		return rec
	}
	check := func(rec *httptest.ResponseRecorder, v any) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("status %d, reply:\n%s\nwant json.Encoder's:\n%s", rec.Code, rec.Body, want.Bytes())
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
			t.Errorf("Content-Length %q, want %d", got, want.Len())
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("Content-Type %q", got)
		}
	}
	rec := do(http.MethodPost, "/v1/lease", LeaseRequest{Worker: "w"})
	check(rec, LeaseResponse{Status: StatusLease, Name: "x<&>", Index: 0, Sum: c.jobs["x<&>"].sum, TTL: time.Minute})
	rec = do(http.MethodPost, "/v1/result", ResultRequest{Worker: "w", Name: "x<&>", Index: 0, Result: richResult(0), Next: &LeaseRequest{Worker: "w"}})
	check(rec, LeaseResponse{Status: StatusLease, Name: "x<&>", Index: 1, Sum: c.jobs["x<&>"].sum, TTL: time.Minute})
	st, _ := c.Status("x<&>")
	check(do(http.MethodGet, "/v1/status/x%3C&%3E", nil), st)
	check(do(http.MethodGet, "/v1/manifests", nil), map[string][]string{"names": {"x<&>"}})
}

// FuzzResultRequestDecode holds the reflection-free decoders of a post
// (decodeResult) and of a lease reply (decodeLease) to json.Unmarshal, on
// any bytes: what they accept, json.Unmarshal decodes to the same value,
// float bits included. The /v1/result route answers any body with the
// status that json.Unmarshal and then the post itself give. Besides the
// raw bytes, each input builds a request json.Marshal encodes, which the
// decoder must accept.
func FuzzResultRequestDecode(f *testing.F) {
	m := testManifest(f, "x", 3)
	sum, err := manifest.Sum(m)
	if err != nil {
		f.Fatal(err)
	}
	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for i, req := range []ResultRequest{
		{Worker: "w", Name: "x", Index: 0, Sum: sum, Result: fakeResult(0), Next: &LeaseRequest{Worker: "w"}},
		{Worker: "w", Name: "x", Index: 1, Result: richResult(1)},
		{Worker: "w<1>", Name: "x", Index: 2, Sum: sum, Result: richResult(2), Next: &LeaseRequest{Worker: "w<1>", Name: "x"}},
		{Worker: "", Name: "x", Index: 1, Sum: "stale", Result: fakeResult(1)},
		{Worker: "w", Name: "nope", Index: 7, Result: fakeResult(7), Next: &LeaseRequest{}},
	} {
		f.Add(marshal(req), "w\\\"é", 0.1*float64(i), int64(i))
	}
	f.Add(marshal(LeaseResponse{Status: StatusLease, Name: "x", Index: 2, Sum: sum, TTL: time.Second}), "x", 1.5, int64(2))
	f.Add([]byte(`{"status":"wait"}`+"\n"), "", 0.0, int64(0))
	f.Add([]byte(`{"worker":"w","name":"x","index":1,"result":{},"next":null}`), "x", -0.0, int64(-1))
	f.Add([]byte(`{"worker":"w","name":"x","index":1.0,"result":{}}`), "x", 0.0, int64(1))
	f.Add([]byte(` {"Worker":"w","name":"x","index":2,"result":{"avg_delay_ns":1}} `), "x", 0.0, int64(1))

	// status is what the /v1/result route answers data with.
	status := func(t *testing.T, h http.Handler, data []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/result", bytes.NewReader(data)))
		return rec.Code
	}
	// reference is the status that route answered before decodeResult:
	// json.Unmarshal, then the post.
	reference := func(c *Coordinator, data []byte) int {
		var req ResultRequest
		if json.Unmarshal(data, &req) != nil {
			return http.StatusBadRequest
		}
		next, err := c.post(req)
		switch {
		case err != nil:
			return rejectStatus(err)
		case next.Status == "":
			return http.StatusNoContent
		}
		return http.StatusOK
	}
	coordinator := func(t *testing.T) *Coordinator {
		c := New(Config{LeaseTTL: time.Minute})
		if err := c.Add(m, nil); err != nil {
			t.Fatal(err)
		}
		c.Seal()
		return c
	}
	check := func(t *testing.T, data []byte) {
		t.Helper()
		var got ResultRequest
		if decodeResult(data, &got) {
			var want ResultRequest
			if err := json.Unmarshal(data, &want); err != nil || !same(got, want) {
				t.Fatalf("decodeResult accepted %q: json.Unmarshal error %v, same value %v\nfast %+v\nwant %+v", data, err, same(got, want), got, want)
			}
		}
		var lease LeaseResponse
		if decodeLease(data, &lease) {
			var want LeaseResponse
			if err := json.Unmarshal(data, &want); err != nil || lease != want {
				t.Fatalf("decodeLease accepted %q: json.Unmarshal error %v\nfast %+v\nwant %+v", data, err, lease, want)
			}
		}
		if got, want := status(t, coordinator(t).Handler(), data), reference(coordinator(t), data); got != want {
			t.Fatalf("POST /v1/result %q: status %d, want %d", data, got, want)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, text string, x float64, n int64) {
		check(t, data)
		r := richResult(int(n & 7))
		r.Scenario.Pattern, r.Scenario.Load, r.AvgDelayNs, r.Packets, r.Meta.WallTime = text, x, -x, n, time.Duration(n)
		req := ResultRequest{Worker: text, Name: "x", Index: int(int32(n)), Result: r}
		if n&1 == 0 {
			req.Sum = text
		}
		if n&2 == 0 {
			req.Next = &LeaseRequest{Worker: text, Name: text}
		}
		line, err := json.Marshal(req)
		if err != nil {
			return // NaN or ±Inf: no body
		}
		if !decodeResult(line, new(ResultRequest)) {
			t.Fatalf("decodeResult declined a body json.Marshal wrote: %s", line)
		}
		check(t, line)
		var reply bytes.Buffer
		if err := json.NewEncoder(&reply).Encode(LeaseResponse{Status: text, Name: text, Index: int(int32(n)), Sum: text, TTL: time.Duration(n)}); err != nil {
			t.Fatal(err)
		}
		if !decodeLease(reply.Bytes(), new(LeaseResponse)) {
			t.Fatalf("decodeLease declined a reply json.Encoder wrote: %s", reply.Bytes())
		}
		check(t, reply.Bytes())
	})
}

// The allocation bounds below pin what one drained point costs the
// queue layer. They are the counts measured when each point was first
// encoded once and decoded without reflection, rounded up; before, one
// post's json.Marshal took 2 allocations and one /v1/result through the
// handler 41.

// underRace is set when the race detector is on (race_test.go).
var underRace bool

// TestEncodedPostAllocs: encoding a post into its pooled buffer and
// putting it back allocates nothing.
func TestEncodedPostAllocs(t *testing.T) {
	req := &ResultRequest{Worker: "w", Name: "x", Index: 1, Sum: "5eed", Result: richResult(1), Next: &LeaseRequest{Worker: "w"}}
	if underRace {
		t.Skip("sync.Pool drops what is put back under the race detector")
	}
	allocs := testing.AllocsPerRun(100, func() {
		e, err := encode(req)
		if err != nil {
			t.Fatal(err)
		}
		e.free()
	})
	t.Logf("one encoded post: %.1f allocations", allocs)
	if allocs > 0 {
		t.Errorf("one encoded post: %.1f allocations, want 0", allocs)
	}
}

// TestResultRouteAllocs: one /v1/result through Handler, from the
// request to the recorded lease reply.
func TestResultRouteAllocs(t *testing.T) {
	const runs = 50
	c := New(Config{LeaseTTL: time.Minute})
	if err := c.Add(testManifest(t, "x", runs+1), nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	h := c.Handler()
	bodies := make([][]byte, runs+1)
	for i := range bodies {
		var err error
		if bodies[i], err = json.Marshal(ResultRequest{Worker: "w", Name: "x", Index: i, Result: richResult(i), Next: &LeaseRequest{Worker: "w"}}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if underRace {
		t.Skip("sync.Pool drops what is put back under the race detector")
	}
	allocs := testing.AllocsPerRun(runs, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/result", bytes.NewReader(bodies[i])))
		if rec.Code != http.StatusOK {
			t.Fatalf("post %d: status %d: %s", i, rec.Code, rec.Body)
		}
		i++
	})
	t.Logf("one /v1/result: %.1f allocations", allocs)
	const bound = 30
	if allocs > bound {
		t.Errorf("one /v1/result: %.1f allocations, want at most %d", allocs, bound)
	}
}
