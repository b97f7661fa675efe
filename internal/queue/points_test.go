package queue

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/nocsim"
	"repro/nocsim/manifest"
)

// pointsBook is what a test expects a coordinator to hold: for each
// manifest the first result posted for each point, and the journal
// lines json.Marshal writes for them, in acceptance order.
type pointsBook struct {
	want  map[string]map[int]nocsim.Result
	lines map[string][]byte
}

// accept records a post of r for point i of name; a point already
// accepted keeps its first result.
func (b *pointsBook) accept(t *testing.T, name string, i int, r nocsim.Result) {
	t.Helper()
	if b.want[name] == nil {
		b.want[name] = map[int]nocsim.Result{}
	}
	if _, ok := b.want[name][i]; ok {
		return
	}
	b.want[name][i] = r
	line, err := json.Marshal(manifest.Record{Index: i, Result: r})
	if err != nil {
		t.Fatal(err)
	}
	b.lines[name] = append(append(b.lines[name], line...), '\n')
}

// check holds c's GET /v1/points/{name} reply, byte for byte, to what
// json.Encoder writes for the expected points as a sorted
// []manifest.Record, Client.Points to the expected map, and the journal
// to the expected lines.
func (b *pointsBook) check(t *testing.T, c *Coordinator, st *manifest.DirStore, name string) {
	t.Helper()
	srv, client := serve(t, c)
	recs := []manifest.Record{}
	for i := 0; i < len(c.jobs[name].slots); i++ {
		if r, ok := b.want[name][i]; ok {
			recs = append(recs, manifest.Record{Index: i, Result: r})
		}
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(recs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/points/" + name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("GET /v1/points/%s:\n%s\nwant the encoding of the sorted records:\n%s", name, got, want.Bytes())
	}
	have, err := client.Points(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	if len(have) != len(recs) || len(recs) > 0 && !reflect.DeepEqual(have, b.want[name]) {
		t.Fatalf("Client.Points(%s) = %d points, want %d, or they differ", name, len(have), len(recs))
	}
	journal, err := os.ReadFile(st.PointsPath(name))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if !bytes.Equal(journal, b.lines[name]) {
		t.Fatalf("journal of %s:\n%s\nwant:\n%s", name, journal, b.lines[name])
	}
}

// TestPointsReplyBytes: after out-of-order and duplicate posts, a
// derived refinement and a restart that resumes sparse journals, GET
// /v1/points answers exactly what json.Encoder wrote for the sorted
// records it replaced, and the journal holds exactly the lines
// Journal.Append writes for the first result of each point.
func TestPointsReplyBytes(t *testing.T) {
	st, err := manifest.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	parent := adaptiveManifest(t, "x", 5, 2)
	plain := testManifest(t, "y", 6)
	for _, m := range []*manifest.Manifest{parent, plain} {
		if err := st.SaveManifest(m); err != nil {
			t.Fatal(err)
		}
	}
	n := parent.NumPoints()
	// Results that exercise the encoder: HTML-escaped strings, floats
	// in exponent form, a trace.
	result := func(i, variant int) nocsim.Result {
		r := kneeResult(i, n)
		r.Scenario.Pattern = `<uniform & "hot">`
		r.P99DelayNs = 1.5e21 + float64(variant)
		r.Throughput = 1e-7 * float64(i+1)
		if i == 1 {
			r.Trace = []nocsim.TraceSample{{TimeNs: 10, FreqHz: 1e9, Volts: 0.9, DelayNs: 123.25}}
		}
		return r
	}
	book := &pointsBook{want: map[string]map[int]nocsim.Result{}, lines: map[string][]byte{}}

	c := New(Config{Store: st})
	for _, m := range []*manifest.Manifest{parent, plain} {
		if err := c.Add(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal()
	_, client := serve(t, c)
	postHTTP := func(m *manifest.Manifest, i, variant int) {
		t.Helper()
		r := result(i, variant)
		if err := client.PostResult(context.Background(), ResultRequest{Worker: "w", Name: m.Name, Index: i, Result: r}); err != nil {
			t.Fatal(err)
		}
		book.accept(t, m.Name, i, r)
	}
	book.check(t, c, st, plain.Name) // nothing done yet: []
	for _, p := range []struct{ i, variant int }{{4, 0}, {0, 0}, {4, 1}, {2, 0}} {
		postHTTP(plain, p.i, p.variant)
	}
	for _, p := range []struct{ i, variant int }{{n - 1, 0}, {1, 0}, {n - 1, 1}, {0, 0}, {3, 0}, {2, 0}, {1, 2}} {
		postHTTP(parent, p.i, p.variant)
	}
	child, ok := c.Manifest(wantChild(t, parent).Name)
	if !ok {
		t.Fatalf("no refinement derived: serving %v", c.Names())
	}
	postHTTP(child, 1, 0)
	for _, m := range []*manifest.Manifest{parent, plain, child} {
		book.check(t, c, st, m.Name)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the store: the plain manifest and the child resume
	// from sparse journals.
	c2 := New(Config{Store: st})
	defer c2.Close()
	for _, m := range []*manifest.Manifest{parent, plain} {
		have, err := st.LoadPoints(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.Add(m, have); err != nil {
			t.Fatal(err)
		}
	}
	c2.Seal()
	_, client = serve(t, c2)
	for _, p := range []struct{ i, variant int }{{5, 0}, {2, 9}, {1, 0}} {
		postHTTP(plain, p.i, p.variant)
	}
	postHTTP(child, 0, 0)
	postHTTP(child, 1, 7)
	// A point mid-journal, as PostResult leaves it without c.mu, is not
	// done yet: the reply leaves it out.
	j := c2.jobs[plain.Name]
	j.slots[3] = slot{journaling, manifest.Record{Index: 3, Result: result(3, 0)}}
	j.journaling++
	for _, m := range []*manifest.Manifest{parent, plain, child} {
		book.check(t, c2, st, m.Name)
	}
}

// TestPointsWhileDraining reads GET /v1/points while workers post:
// every reply is a sorted run of the points that are done, each with
// the result its post carried, and the last one holds them all.
func TestPointsWhileDraining(t *testing.T) {
	const n = 60
	m := testManifest(t, "x", n)
	c := New(Config{})
	if err := c.Add(m, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	h := c.Handler()
	read := func() []manifest.Record {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/points/x", nil))
		var got []manifest.Record
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Errorf("GET /v1/points/x: %v: %s", err, rec.Body)
			return nil
		}
		for k, r := range got {
			if k > 0 && r.Index <= got[k-1].Index || !reflect.DeepEqual(r.Result, fakeResult(r.Index)) {
				t.Errorf("GET /v1/points/x: record %d (index %d) out of order or not its post's result", k, r.Index)
				return nil
			}
		}
		return got
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 3 {
				if err := c.PostResult(ResultRequest{Worker: "w", Name: "x", Index: i, Result: fakeResult(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
			read()
		}
	}
	if got := read(); len(got) != n {
		t.Fatalf("GET /v1/points/x after the drain: %d points, want %d", len(got), n)
	}
}
