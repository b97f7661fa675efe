package queue

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/nocsim/manifest"
)

// fuzzRoutes are the routes FuzzCoordinatorRequests drives; the first
// byte of each request line picks one. All but the last are POSTs.
var fuzzRoutes = [...]string{"/v1/lease", "/v1/result", "/v1/renew", "/v1/points/x"}

// FuzzCoordinatorRequests sends arbitrary bodies to the coordinator's
// POST routes, and reads its points between them. An input is a sequence
// of requests, one a line: the first byte picks the route, the rest is
// the body (a GET of the points has none), and the coordinator's clock
// moves a second (a third of the TTL) before each. Whatever the bytes,
// the handler must not panic, must answer 5xx only for a failed journal
// append, must journal no index twice, and must answer GET /v1/points
// with exactly the journaled records, in ascending index order.
func FuzzCoordinatorRequests(f *testing.F) {
	m := testManifest(f, "x", 3)
	sum, err := manifest.Sum(m)
	if err != nil {
		f.Fatal(err)
	}
	line := func(route byte, v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return append([]byte{route}, data...)
	}
	lease := line(0, LeaseRequest{Worker: "w"})
	post := func(i int) []byte {
		return line(1, ResultRequest{Worker: "w", Name: "x", Index: i, Sum: sum, Result: fakeResult(i), Next: &LeaseRequest{Worker: "w"}})
	}
	renew := func(worker string, i int) []byte {
		return line(2, RenewRequest{Worker: worker, Name: "x", Index: i})
	}
	points := []byte{3}
	for _, seed := range [][][]byte{
		{lease, renew("w", 0), post(0), post(1), post(2)},
		{lease, renew("v", 0), lease, lease, post(0), post(0), renew("w", 0)},
		{lease, lease, lease, lease, post(1), renew("w", 1), post(2)},
		{post(2), post(2), renew("w", 5), line(1, ResultRequest{Name: "x", Index: -1})},
		{line(2, LeaseRequest{Worker: "w"}), line(0, RenewRequest{Name: "nope"}), {1, '{'}},
		{points, post(2), points, post(0), post(2), points, post(1), points},
	} {
		f.Add(bytes.Join(seed, []byte("\n")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := manifest.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveManifest(m); err != nil {
			t.Fatal(err)
		}
		clock := &fakeClock{now: time.Unix(1000, 0)}
		c := New(Config{LeaseTTL: 3 * time.Second, MaxLeases: 2, Store: st, Clock: clock.Now})
		if err := c.Add(m, nil); err != nil {
			t.Fatal(err)
		}
		c.Seal()
		h := c.Handler()
		for _, req := range bytes.Split(data, []byte("\n")) {
			if len(req) == 0 {
				continue
			}
			clock.Advance(time.Second)
			path := fuzzRoutes[int(req[0])%len(fuzzRoutes)]
			rec := httptest.NewRecorder()
			if path == fuzzRoutes[len(fuzzRoutes)-1] {
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				checkPoints(t, rec, st)
				continue
			}
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(req[1:])))
			if rec.Code >= 500 && !strings.Contains(rec.Body.String(), "journaling") {
				t.Fatalf("POST %s %q: status %d: %s", path, req[1:], rec.Code, rec.Body)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		journal, err := os.ReadFile(st.PointsPath("x"))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, rec := range bytes.Split(bytes.TrimSuffix(journal, []byte("\n")), []byte("\n")) {
			if len(rec) == 0 {
				continue
			}
			var r manifest.Record
			if err := json.Unmarshal(rec, &r); err != nil {
				t.Fatalf("journal line %q: %v", rec, err)
			}
			if seen[r.Index] {
				t.Fatalf("index %d journaled twice:\n%s", r.Index, journal)
			}
			seen[r.Index] = true
		}
		if st, _ := c.Status("x"); st.Done != len(seen) {
			t.Fatalf("%d points done, %d journaled", st.Done, len(seen))
		}
	})
}

// checkPoints fails unless rec holds a 200 whose body decodes to the
// records of st's journal of x, in ascending index order.
func checkPoints(t *testing.T, rec *httptest.ResponseRecorder, st *manifest.DirStore) {
	t.Helper()
	var got []manifest.Record
	if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/points/x: status %d, %v: %s", rec.Code, err, rec.Body)
	}
	have, err := st.LoadPoints("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(have) {
		t.Fatalf("GET /v1/points/x answered %d points, %d journaled", len(got), len(have))
	}
	for k, r := range got {
		if k > 0 && r.Index <= got[k-1].Index {
			t.Fatalf("GET /v1/points/x: index %d after %d", r.Index, got[k-1].Index)
		}
		if want, ok := have[r.Index]; !ok || !reflect.DeepEqual(r.Result, want) {
			t.Fatalf("GET /v1/points/x: point %d is not the journaled one", r.Index)
		}
	}
}
