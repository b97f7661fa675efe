package queue

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/nocsim"
	"repro/nocsim/manifest"
	"repro/nocsim/results"
)

// Config tunes a Coordinator.
type Config struct {
	// LeaseTTL is how long a worker holds a leased point before it may be
	// re-issued — but only until the coordinator has observed enough of a
	// manifest's point latencies to estimate its own TTL (see TTLFloor).
	// Zero means 60 seconds — generous against full-window simulation
	// points that take tens of seconds.
	LeaseTTL time.Duration
	// MaxLeases caps the number of outstanding leases across all
	// manifests; further requests get StatusWait until a lease resolves
	// or expires. Zero means 1024. This is the coordinator's only
	// concurrency knob: how many sims actually run at once is each worker
	// process's own leaf budget.
	MaxLeases int
	// TTLFloor and TTLCeil clamp the adaptive lease TTL the coordinator
	// derives from observed point latencies (per manifest, decayed
	// mean + variance; LeaseTTL is the fallback until warmed up). Zero
	// means 2 seconds and 10 minutes.
	TTLFloor time.Duration
	TTLCeil  time.Duration
	// AuthToken, when non-empty, requires every HTTP request — lease,
	// post, status, metrics, all of them — to carry it as
	// "Authorization: Bearer <token>"; anything else is answered 401.
	// In-process method calls are unaffected (they are already trusted).
	AuthToken string
	// Store, when non-nil, journals every accepted result so a restarted
	// coordinator resumes from disk (hand the loaded points to Add).
	Store *manifest.DirStore
	// Results, when non-nil, mirrors every registered plan and accepted
	// point into the persistent results store the query service reads.
	// The journal stays the durable source of truth: a results-store
	// write failure is counted (results_store_errors_total) but does not
	// fail the post — a backfill import over the journal repairs the
	// store.
	Results *results.Store
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// A Coordinator owns the lease state of a set of manifests and exposes
// it over HTTP (Handler). It is safe for concurrent use and runs no
// background goroutines; create it, Add manifests, serve Handler, and
// Close it when the server is down.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	names    []string        // registration order, for fair scanning
	jobs     map[string]*job // keyed by manifest name
	sealed   bool            // no more Adds coming (see Seal)
	quiesced bool            // draining for shutdown: no new leases (see Quiesce)
	expected map[string]bool // follow-on manifests promised but not yet added (see Expect)
	met      metricsState
}

type job struct {
	m       *manifest.Manifest
	sum     string // plan fingerprint, echoed in leases and checked on post
	total   int
	done    map[int]nocsim.Result
	pending map[int]bool // being journaled right now (c.mu released for the fsync)
	leases  map[int]lease
	expired map[int]bool // lease expired; the next grant is a re-issue
	// firstGrant remembers when each in-flight point was FIRST leased,
	// surviving expiry and re-issue, so the latency fed to the adaptive
	// TTL is first-grant to first-accepted-post. Measuring only live
	// leases would be fatal: a too-short TTL estimate would expire every
	// slow point's lease before its post, the slow latency would never be
	// sampled, and the estimate could never recover. Across a re-issue
	// this overestimates (it includes the dead worker's silence), which
	// errs toward longer TTLs — the safe direction.
	firstGrant map[int]time.Time
	lat        ttlEstimator      // observed point latencies of this manifest
	journal    *manifest.Journal // nil without a store
}

// ttlLocked is the TTL a lease granted now would get: adaptive once the
// manifest's latency estimate has warmed up, the configured fallback
// before. Callers hold c.mu.
func (j *job) ttlLocked(cfg Config) time.Duration {
	return j.lat.ttl(cfg.LeaseTTL, cfg.TTLFloor, cfg.TTLCeil)
}

type lease struct {
	worker   string
	deadline time.Time
}

// New returns an empty coordinator.
func New(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 60 * time.Second
	}
	if cfg.MaxLeases <= 0 {
		cfg.MaxLeases = 1024
	}
	if cfg.TTLFloor <= 0 {
		cfg.TTLFloor = 2 * time.Second
	}
	if cfg.TTLCeil <= 0 {
		cfg.TTLCeil = 10 * time.Minute
	}
	if cfg.TTLCeil < cfg.TTLFloor {
		cfg.TTLCeil = cfg.TTLFloor
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Coordinator{
		cfg:      cfg,
		jobs:     map[string]*job{},
		expected: map[string]bool{},
		met: metricsState{
			rate:    rateWindow{window: rateWindowSize},
			workers: map[string]*workerStats{},
		},
	}
}

// Add registers a manifest and its already-completed points (from a
// resumed journal; nil for a fresh run). With a store configured, the
// journal for the manifest is opened for appends — persist the manifest
// itself (DirStore.SaveManifest or sweep.Executor.Open) before calling
// Add, since saving later would truncate the very journal the
// coordinator writes.
func (c *Coordinator) Add(m *manifest.Manifest, have map[int]nocsim.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.jobs[m.Name]; ok {
		return fmt.Errorf("queue: manifest %q already registered", m.Name)
	}
	sum, err := manifest.Sum(m)
	if err != nil {
		return err
	}
	return c.registerLocked(m, sum, have)
}

// registerLocked is the shared registration body behind Add and
// AddFollowOn: mirror the plan (and any resumed points) into the results
// store, build the job, and open its journal. Callers hold c.mu and have
// already verified the name is free.
func (c *Coordinator) registerLocked(m *manifest.Manifest, sum string, have map[int]nocsim.Result) error {
	if c.cfg.Results != nil {
		// Register the plan and backfill the resumed points, so the store
		// is complete even when it was attached after the journal already
		// held results. Unlike per-point mirroring this is registration:
		// failing it loudly here beats serving a store that silently
		// cannot accept this plan's points.
		if _, _, err := c.cfg.Results.ImportJournal(m, have); err != nil {
			return err
		}
	}
	j := &job{
		m:          m,
		sum:        sum,
		total:      m.NumPoints(),
		done:       map[int]nocsim.Result{},
		pending:    map[int]bool{},
		leases:     map[int]lease{},
		expired:    map[int]bool{},
		firstGrant: map[int]time.Time{},
	}
	for i, r := range have {
		if i >= 0 && i < j.total {
			j.done[i] = r
		}
	}
	if c.cfg.Store != nil {
		journal, err := c.cfg.Store.Journal(m.Name)
		if err != nil {
			return err
		}
		j.journal = journal
	}
	c.jobs[m.Name] = j
	c.names = append(c.names, m.Name)
	return nil
}

// Expect promises that a follow-on manifest with the given name will be
// added later — typically an adaptive client registering its refinement
// pass before the coarse results that determine it exist. While any
// expectation is outstanding, unscoped workers are told to wait instead
// of "done" (even after Seal) and Complete reports false, so a fleet
// never drains away between a coarse pass finishing and its refinement
// arriving. The expectation is cleared by AddFollowOn of that name, or
// by Unexpect when the refinement turns out to be empty.
func (c *Coordinator) Expect(name string) error {
	if name == "" {
		return fmt.Errorf("queue: expectation needs a manifest name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.jobs[name]; ok {
		return nil // already registered: nothing left to expect
	}
	c.expected[name] = true
	return nil
}

// Unexpect withdraws an expectation registered with Expect — the
// adaptive client's way of saying "no refinement after all". Unknown
// names are a no-op so error-path cleanup can call it unconditionally.
func (c *Coordinator) Unexpect(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.expected, name)
}

// AddFollowOn registers a manifest appended to a live (possibly sealed)
// plan — the refinement pass of an adaptive sweep. Unlike Add it is
// idempotent: re-adding a manifest already registered under the same
// plan fingerprint succeeds silently (two adaptive clients refining the
// same coarse results compute byte-identical children), while the same
// name under a different fingerprint is refused — that can only be a
// stale child derived from an earlier parent plan. With a store
// configured the manifest is persisted (or, when an identical plan is
// already on disk, its journaled points resumed) before registration,
// exactly like the serve path does for its initial manifests. Any
// expectation registered for the name is cleared.
func (c *Coordinator) AddFollowOn(m *manifest.Manifest) error {
	sum, err := manifest.Sum(m)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if j, ok := c.jobs[m.Name]; ok {
		if j.sum != sum {
			return fmt.Errorf("queue: follow-on manifest %q already registered with plan %s (got %s): stale refinement of an earlier parent", m.Name, j.sum, sum)
		}
		delete(c.expected, m.Name)
		return nil
	}
	var have map[int]nocsim.Result
	if c.cfg.Store != nil {
		// When the same refinement was journaled by an earlier run (a
		// restarted coordinator, a previous adaptive client), resume its
		// completed points instead of recomputing them.
		if have, err = c.cfg.Store.SaveOrResume(m); err != nil {
			return err
		}
	}
	if err := c.registerLocked(m, sum, have); err != nil {
		return err
	}
	delete(c.expected, m.Name)
	c.met.followOnTotal++
	return nil
}

// Seal declares registration finished: no more Adds are coming. Until a
// coordinator is sealed, an unscoped lease request never answers
// StatusDone — only StatusWait — so workers that attach while the serve
// loop is still planning later manifests don't drain away after the
// first one completes. Leases scoped to a named manifest are unaffected
// (that manifest's completion is its own answer).
func (c *Coordinator) Seal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealed = true
}

// Quiesce puts the coordinator into shutdown drain: every further lease
// request is answered StatusWait, so no new work leaves the building,
// while posts of already-leased points are still accepted and journaled.
// It is the first step of a graceful shutdown — quiesce, let the HTTP
// server drain in-flight requests, then Close to flush and fsync the
// journals.
func (c *Coordinator) Quiesce() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quiesced = true
}

// Close releases the journals. Call it after the HTTP server is shut
// down.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, j := range c.jobs {
		if j.journal != nil {
			if err := j.journal.Close(); err != nil && first == nil {
				first = err
			}
			j.journal = nil
		}
	}
	return first
}

// pruneLocked drops expired leases (re-issuable from now on) and returns
// the number still outstanding. Callers hold c.mu.
func (c *Coordinator) pruneLocked(now time.Time) int {
	outstanding := 0
	for _, j := range c.jobs {
		for i, l := range j.leases {
			if !l.deadline.After(now) {
				delete(j.leases, i)
				j.expired[i] = true
			}
		}
		outstanding += len(j.leases)
	}
	return outstanding
}

// freeLocked returns the lowest free (not done, not being journaled,
// not leased) index of j, or -1 when none.
func (j *job) freeLocked() int {
	for i := 0; i < j.total; i++ {
		if _, ok := j.done[i]; ok {
			continue
		}
		if j.pending[i] {
			continue
		}
		if _, ok := j.leases[i]; ok {
			continue
		}
		return i
	}
	return -1
}

// Lease grants one point of the requested scope, or reports wait/done.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	c.met.touchWorkerLocked(req.Worker, now) // every lease request is a heartbeat
	if c.quiesced {
		// Draining for shutdown: grant nothing new, and don't claim
		// "done" either — the worker should simply wait until the server
		// goes away (or the operator changes their mind).
		return LeaseResponse{Status: StatusWait}, nil
	}
	outstanding := c.pruneLocked(now)

	scope := c.names
	if req.Name != "" {
		if _, ok := c.jobs[req.Name]; !ok {
			return LeaseResponse{}, fmt.Errorf("queue: unknown manifest %q", req.Name)
		}
		scope = []string{req.Name}
	}
	if len(scope) == 0 {
		// Nothing registered yet (the coordinator may still be planning):
		// tell the worker to wait for work rather than "done".
		return LeaseResponse{Status: StatusWait}, nil
	}
	complete := true
	for _, name := range scope {
		if len(c.jobs[name].done) < c.jobs[name].total {
			complete = false
			break
		}
	}
	if complete {
		// An unscoped "done" is only trustworthy once registration is
		// sealed AND no follow-on manifest is still expected: while the
		// serve loop is planning later manifests, or an adaptive client
		// has promised a refinement pass it hasn't posted yet,
		// "everything registered so far is complete" must read as "wait
		// for more work", or attached workers drain away early.
		if req.Name == "" && (!c.sealed || len(c.expected) > 0) {
			return LeaseResponse{Status: StatusWait}, nil
		}
		return LeaseResponse{Status: StatusDone}, nil
	}
	if outstanding >= c.cfg.MaxLeases {
		return LeaseResponse{Status: StatusWait}, nil
	}
	for _, name := range scope {
		j := c.jobs[name]
		if i := j.freeLocked(); i >= 0 {
			if j.expired[i] {
				c.met.reissuedTotal++
				delete(j.expired, i)
			}
			if _, ok := j.firstGrant[i]; !ok {
				j.firstGrant[i] = now
			}
			deadline := now.Add(j.ttlLocked(c.cfg))
			j.leases[i] = lease{worker: req.Worker, deadline: deadline}
			return LeaseResponse{Status: StatusLease, Name: name, Index: i, Sum: j.sum, Deadline: deadline}, nil
		}
	}
	// Everything incomplete is leased out; the caller should poll again
	// (a lease will resolve or expire).
	return LeaseResponse{Status: StatusWait}, nil
}

// PostResult accepts one computed point. The first result for a point is
// journaled and recorded; a duplicate (a slow worker posting after its
// lease expired and the point was recomputed) is acknowledged without a
// second journal line, so the journal holds each point exactly once.
//
// The journal fsync happens outside the coordinator mutex — Journal has
// its own lock — so lease grants and status polls from other workers
// never queue behind per-line disk syncs; the pending set is what keeps
// a concurrent duplicate from writing a second line meanwhile.
func (c *Coordinator) PostResult(req ResultRequest) error {
	c.mu.Lock()
	now := c.cfg.Clock()
	c.met.touchWorkerLocked(req.Worker, now)
	j, ok := c.jobs[req.Name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("queue: unknown manifest %q", req.Name)
	}
	if req.Index < 0 || req.Index >= j.total {
		c.mu.Unlock()
		return fmt.Errorf("queue: %s result index %d out of range [0, %d)", req.Name, req.Index, j.total)
	}
	if req.Sum != "" && req.Sum != j.sum {
		// The worker computed against a different plan (a coordinator
		// restarted with new options between its lease and its post):
		// journaling it would silently corrupt the tables.
		c.met.staleRejected++
		c.mu.Unlock()
		return fmt.Errorf("queue: %s result computed against plan %s, serving %s; re-lease", req.Name, req.Sum, j.sum)
	}
	if _, done := j.done[req.Index]; done || j.pending[req.Index] {
		c.mu.Unlock()
		return nil // duplicate: first result won (or is being journaled)
	}
	j.pending[req.Index] = true
	journal := j.journal
	sum := j.sum
	c.mu.Unlock()

	var err error
	if journal != nil {
		err = journal.Append(req.Index, req.Result)
	}
	var storeErr error
	if err == nil && c.cfg.Results != nil {
		// Mirror into the results store only once the journal line is
		// durable: the journal is the source of truth, and a store hiccup
		// must not fail the post (the backfill importer repairs the store
		// from the journal).
		storeErr = c.cfg.Results.AddPoint(sum, req.Index, req.Result)
	}

	c.mu.Lock()
	delete(j.pending, req.Index)
	if storeErr != nil {
		c.met.resultsStoreErrors++
	}
	if err == nil {
		j.done[req.Index] = req.Result
		delete(j.leases, req.Index)
		delete(j.expired, req.Index)
		if t0, ok := j.firstGrant[req.Index]; ok {
			// First grant to first accepted post: the latency sample that
			// feeds the adaptive TTL (see the firstGrant field comment).
			j.lat.observe(now.Sub(t0))
			delete(j.firstGrant, req.Index)
		}
		c.met.completedTotal++
		c.met.rate.observe(now)
		if ws := c.met.touchWorkerLocked(req.Worker, now); ws != nil {
			ws.points++
		}
	}
	c.mu.Unlock()
	if err != nil {
		// Not recorded: the lease stands (or expires) and the point will
		// be posted again.
		return fmt.Errorf("queue: journaling %s point %d: %w", req.Name, req.Index, err)
	}
	return nil
}

// Manifest returns a registered manifest by name.
func (c *Coordinator) Manifest(name string) (*manifest.Manifest, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[name]
	if !ok {
		return nil, false
	}
	return j.m, true
}

// Names returns the registered manifest names in registration order.
func (c *Coordinator) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.names...)
}

// Points returns a manifest's completed results, keyed by point index.
func (c *Coordinator) Points(name string) (map[int]nocsim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[name]
	if !ok {
		return nil, false
	}
	out := make(map[int]nocsim.Result, len(j.done))
	for i, r := range j.done {
		out[i] = r
	}
	return out, true
}

// Status reports one manifest's progress.
func (c *Coordinator) Status(name string) (Status, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[name]
	if !ok {
		return Status{}, false
	}
	return Status{
		Name:       name,
		Total:      j.total,
		Done:       len(j.done),
		Leased:     len(j.leases),
		Complete:   len(j.done) == j.total,
		TTLSeconds: j.ttlLocked(c.cfg).Seconds(),
	}, true
}

// Complete reports whether every registered manifest is fully computed
// and no promised follow-on manifest is still outstanding — so a serve
// loop's -exit-when-done cannot fire between a coarse pass finishing and
// its refinement arriving.
func (c *Coordinator) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.expected) > 0 {
		return false
	}
	for _, j := range c.jobs {
		if len(j.done) < j.total {
			return false
		}
	}
	return true
}

// Handler returns the coordinator's HTTP API:
//
//	GET  /v1/manifests           -> {"names": [...]}
//	GET  /v1/manifest/{name}     -> the manifest JSON
//	POST /v1/manifest            -> manifest JSON -> 204 (AddFollowOn)
//	POST /v1/expect/{name}       -> 204 (Expect a follow-on manifest)
//	DELETE /v1/expect/{name}     -> 204 (Unexpect)
//	POST /v1/lease               -> LeaseRequest -> LeaseResponse
//	POST /v1/result              -> ResultRequest -> 204
//	GET  /v1/points/{name}       -> sorted [{index, result}, ...]
//	GET  /v1/status/{name}       -> Status
//	GET  /metrics                -> Prometheus text format (see metrics.go)
//
// With Config.AuthToken set, every route — /metrics included — demands
// "Authorization: Bearer <token>" and answers 401 otherwise.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/manifests", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Names []string `json:"names"`
		}{c.Names()})
	})
	mux.HandleFunc("GET /v1/manifest/{name}", func(w http.ResponseWriter, r *http.Request) {
		m, ok := c.Manifest(r.PathValue("name"))
		if !ok {
			http.Error(w, "unknown manifest", http.StatusNotFound)
			return
		}
		writeJSON(w, m)
	})
	mux.HandleFunc("POST /v1/manifest", func(w http.ResponseWriter, r *http.Request) {
		var m manifest.Manifest
		// A manifest is small (panels of grids); 16 MiB is far beyond any
		// real plan and keeps a hostile peer from streaming gigabytes.
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if m.Name == "" {
			http.Error(w, "manifest without a name", http.StatusBadRequest)
			return
		}
		if err := c.AddFollowOn(&m); err != nil {
			// The only registration-time refusal is a name collision under
			// a different plan fingerprint: a conflict, not a server fault.
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/expect/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Expect(r.PathValue("name")); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /v1/expect/{name}", func(w http.ResponseWriter, r *http.Request) {
		c.Unexpect(r.PathValue("name"))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := c.Lease(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /v1/result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.PostResult(req); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/points/{name}", func(w http.ResponseWriter, r *http.Request) {
		have, ok := c.Points(r.PathValue("name"))
		if !ok {
			http.Error(w, "unknown manifest", http.StatusNotFound)
			return
		}
		recs := make([]manifest.Record, 0, len(have))
		for i, res := range have {
			recs = append(recs, manifest.Record{Index: i, Result: res})
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].Index < recs[b].Index })
		writeJSON(w, recs)
	})
	mux.HandleFunc("GET /v1/status/{name}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Status(r.PathValue("name"))
		if !ok {
			http.Error(w, "unknown manifest", http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.writeMetrics(w)
	})
	if c.cfg.AuthToken == "" {
		return mux
	}
	return requireToken(c.cfg.AuthToken, mux)
}

// requireToken demands "Authorization: Bearer <token>" on every request.
// The comparison is constant-time; a miss gets 401 with a WWW-Authenticate
// challenge so curl/worker logs show exactly what was expected.
func requireToken(token string, next http.Handler) http.Handler {
	want := []byte(token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="nocsimd"`)
			http.Error(w, "401 unauthorized: missing or wrong bearer token (coordinator runs with -auth-token)", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
