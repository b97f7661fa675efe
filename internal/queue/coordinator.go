package queue

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/nocsim"
	"repro/nocsim/manifest"
	"repro/nocsim/results"
)

// Config tunes a Coordinator.
type Config struct {
	// LeaseTTL is how long a lease lives after its grant or its last
	// renewal (Renew); a Worker renews every LeaseTTL/3 while it computes
	// the point. Zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxLeases caps the number of outstanding leases across all
	// manifests; further requests get StatusWait until a lease resolves
	// or expires. Zero means 1024. This is the coordinator's only
	// concurrency knob: how many sims actually run at once is each worker
	// process's own leaf budget.
	MaxLeases int
	// Deprecated: TTLFloor and TTLCeil are ignored. They bounded the
	// lease TTL that renewal replaced.
	TTLFloor, TTLCeil time.Duration
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
	met      metricsState
}

type job struct {
	m     *manifest.Manifest
	sum   string // plan fingerprint, echoed in leases and checked on post
	total int
	// slots holds every point, slots[i] point i. Its length is total
	// from registration on, and a done slot never changes again, so a
	// reader that saw a slot done under c.mu may read it without c.mu.
	slots []slot
	// done and journaling count the slots in those states.
	done, journaling int
	leases           map[int]lease
	expired          map[int]bool // lease expired; the next grant is a re-issue
	// next is the lowest index that may be free: every point below it is
	// done, being journaled or leased. freeLocked advances it; an expired
	// lease or a failed journal append moves it back.
	next    int
	journal *manifest.Journal // nil without a store
}

// A slot is one point of a job: its state and, unless it is free, its
// result as the record the journal and GET /v1/points hold it as.
type slot struct {
	state slotState
	rec   manifest.Record
}

type slotState uint8

const (
	free       slotState = iota // no result yet (it may be leased)
	journaling                  // posted, its journal append in flight (c.mu released for the fsync)
	done                        // journaled
)

type lease struct {
	worker   string
	deadline time.Time
	// carrier is the post whose reply carried this grant (zero for a
	// grant from Lease): a retry of that post, whose first reply was
	// lost, is handed this lease again instead of a second one.
	carrier postRef
}

// postRef names one posted point.
type postRef struct {
	name  string
	index int
}

// Rejections that no retry can mend; the HTTP routes answer them with
// 4xx (see rejectStatus) so a Client gives up after one attempt.
var (
	errStalePlan  = errors.New("queue: result from a stale plan")
	errIndexRange = errors.New("queue: point index out of range")
	errLeaseLost  = errors.New("queue: lease lost")
)

// New returns an empty coordinator.
func New(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxLeases <= 0 {
		cfg.MaxLeases = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Coordinator{
		cfg:  cfg,
		jobs: map[string]*job{},
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
// coordinator writes. An adaptive manifest complete on arrival has its
// refinement derived here.
func (c *Coordinator) Add(m *manifest.Manifest, have map[int]nocsim.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.jobs[m.Name]; ok {
		return fmt.Errorf("queue: manifest %q already registered", m.Name)
	}
	j, err := c.registerLocked(m, have)
	if err != nil || j.done < j.total {
		return err
	}
	return c.refineLocked(j, j.resultsLocked())
}

// refineLocked registers the follow-on of an adaptive job (RefineBudget
// > 0): the child manifest.Refine derives from the plan, all of its
// results and the budget, resumed from the store's journal when that
// holds the identical plan. It runs before the job can read complete, so
// a job is never complete with its follow-on undecided. Callers hold c.mu.
func (c *Coordinator) refineLocked(j *job, results []nocsim.Result) error {
	if j.m.RefineBudget <= 0 {
		return nil
	}
	child, err := manifest.Refine(j.m, results, j.m.RefineBudget)
	if err != nil || child == nil {
		return err
	}
	if _, ok := c.jobs[child.Name]; ok {
		return nil // derived by an earlier post of this point that failed to journal
	}
	var have map[int]nocsim.Result
	if c.cfg.Store != nil {
		if have, err = c.cfg.Store.SaveOrResume(child); err != nil {
			return err
		}
	}
	if _, err := c.registerLocked(child, have); err != nil {
		return err
	}
	c.met.followOnTotal++
	return nil
}

// resultsLocked returns j's done and being-journaled results in point
// order, the zero Result for any other point. Callers hold c.mu.
func (j *job) resultsLocked() []nocsim.Result {
	results := make([]nocsim.Result, j.total)
	for i := range j.slots {
		if j.slots[i].state != free {
			results[i] = j.slots[i].rec.Result
		}
	}
	return results
}

// registerLocked is the shared registration body behind Add and
// refineLocked: mirror the plan (and any resumed points) into the
// results store, build the job, and open its journal. Callers hold c.mu
// and have already verified the name is free.
func (c *Coordinator) registerLocked(m *manifest.Manifest, have map[int]nocsim.Result) (*job, error) {
	sum, err := manifest.Sum(m)
	if err != nil {
		return nil, err
	}
	if c.cfg.Results != nil {
		// Register the plan and backfill the resumed points, so the store
		// is complete even when it was attached after the journal already
		// held results. Unlike per-point mirroring this is registration:
		// failing it loudly here beats serving a store that silently
		// cannot accept this plan's points.
		if _, _, err := c.cfg.Results.ImportJournal(m, have); err != nil {
			return nil, err
		}
	}
	total := m.NumPoints()
	j := &job{
		m:       m,
		sum:     sum,
		total:   total,
		slots:   make([]slot, total),
		leases:  map[int]lease{},
		expired: map[int]bool{},
	}
	for i, r := range have {
		if i >= 0 && i < total {
			j.slots[i] = slot{done, manifest.Record{Index: i, Result: r}}
			j.done++
		}
	}
	if c.cfg.Store != nil {
		journal, err := c.cfg.Store.Journal(m.Name)
		if err != nil {
			return nil, err
		}
		j.journal = journal
	}
	c.jobs[m.Name] = j
	c.names = append(c.names, m.Name)
	return j, nil
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
				j.next = min(j.next, i)
			}
		}
		outstanding += len(j.leases)
	}
	return outstanding
}

// freeLocked returns the lowest free (not done, not being journaled,
// not leased) index of j, or -1 when none, scanning from j.next.
func (j *job) freeLocked() int {
	for ; j.next < j.total; j.next++ {
		i := j.next
		if j.slots[i].state != free {
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
	return c.leaseLocked(req, c.cfg.Clock(), postRef{})
}

// leaseLocked is Lease under c.mu; a grant remembers the post whose
// reply carries it (carrier, zero for Lease itself).
func (c *Coordinator) leaseLocked(req LeaseRequest, now time.Time, carrier postRef) (LeaseResponse, error) {
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
		if c.jobs[name].done < c.jobs[name].total {
			complete = false
			break
		}
	}
	if complete {
		// An unscoped "done" is only trustworthy once registration is
		// sealed: while the serve loop is planning later manifests,
		// "everything registered so far is complete" must read as "wait
		// for more work", or attached workers drain away early.
		if req.Name == "" && !c.sealed {
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
			j.leases[i] = lease{worker: req.Worker, deadline: now.Add(c.cfg.LeaseTTL), carrier: carrier}
			return LeaseResponse{Status: StatusLease, Name: name, Index: i, Sum: j.sum, TTL: c.cfg.LeaseTTL}, nil
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
// never queue behind per-line disk syncs; the point's journaling slot is
// what keeps a concurrent duplicate from writing a second line meanwhile.
// The post that hands in an adaptive manifest's last point registers
// its follow-on first; if that fails, nothing is recorded.
//
// A rejection no retry can mend wraps ErrUnknownManifest, a stale plan
// sum or an index out of range; any other error is a journaling
// failure. req.Next is ignored: only the HTTP route grants a carried
// lease.
func (c *Coordinator) PostResult(req ResultRequest) error {
	req.Next = nil
	_, err := c.post(req)
	return err
}

// post is PostResult, and then, when req.Next is set and the point is
// recorded (or was already), the poster's next lease, granted under the
// same lock that records the point. A lease error leaves the reply
// empty: the post still stands, and the worker asks for its lease
// alone. A retried post whose first reply was lost is handed the lease
// that first reply carried, while it stands.
func (c *Coordinator) post(req ResultRequest) (LeaseResponse, error) {
	var next LeaseResponse
	c.mu.Lock()
	now := c.cfg.Clock()
	c.met.touchWorkerLocked(req.Worker, now)
	j, ok := c.jobs[req.Name]
	if !ok {
		c.mu.Unlock()
		return next, fmt.Errorf("%w: %q", ErrUnknownManifest, req.Name)
	}
	if req.Index < 0 || req.Index >= j.total {
		c.mu.Unlock()
		return next, fmt.Errorf("%w: %s index %d, want [0, %d)", errIndexRange, req.Name, req.Index, j.total)
	}
	if req.Sum != "" && req.Sum != j.sum {
		// The worker computed against a different plan (a coordinator
		// restarted with new options between its lease and its post):
		// journaling it would silently corrupt the tables.
		c.met.staleRejected++
		c.mu.Unlock()
		return next, fmt.Errorf("%w: %s result computed against plan %s, serving %s; re-lease", errStalePlan, req.Name, req.Sum, j.sum)
	}
	at := postRef{req.Name, req.Index}
	s := &j.slots[req.Index]
	if s.state != free {
		// Duplicate: first result won (or is being journaled).
		if req.Next != nil {
			next = c.regrantLocked(req.Worker, at, now)
			if next.Status == "" {
				next, _ = c.leaseLocked(*req.Next, now, at)
			}
		}
		c.mu.Unlock()
		return next, nil
	}
	if j.m.RefineBudget > 0 && j.done+j.journaling == j.total-1 {
		results := j.resultsLocked() // every other point is in or being journaled
		results[req.Index] = req.Result
		if err := c.refineLocked(j, results); err != nil {
			c.mu.Unlock()
			return next, fmt.Errorf("queue: refining %s: %w", req.Name, err)
		}
	}
	*s = slot{journaling, manifest.Record{Index: req.Index, Result: req.Result}}
	j.journaling++
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
	defer c.mu.Unlock()
	j.journaling--
	if storeErr != nil {
		c.met.resultsStoreErrors++
	}
	if err != nil {
		// Not recorded, and no lease granted: the lease stands (or
		// expires) and the point will be posted again. Had it expired
		// already, the point is free from now on.
		*s = slot{}
		j.next = min(j.next, req.Index)
		return next, fmt.Errorf("queue: journaling %s point %d: %w", req.Name, req.Index, err)
	}
	s.state = done
	j.done++
	delete(j.leases, req.Index)
	delete(j.expired, req.Index)
	c.met.completedTotal++
	c.met.rate.observe(now)
	if ws := c.met.touchWorkerLocked(req.Worker, now); ws != nil {
		ws.points++
	}
	if req.Next != nil {
		next, _ = c.leaseLocked(*req.Next, c.cfg.Clock(), at)
	}
	return next, nil
}

// regrantLocked finds the standing lease that the reply to worker's
// post at carried, the zero LeaseResponse when there is none, and gives
// it a full TTL from now, as a fresh grant has: the worker learns of it
// only now and first renews it a third of a TTL from now. Callers hold
// c.mu.
func (c *Coordinator) regrantLocked(worker string, at postRef, now time.Time) LeaseResponse {
	c.pruneLocked(now)
	for _, name := range c.names {
		j := c.jobs[name]
		for i, l := range j.leases {
			if l.carrier == at && l.worker == worker {
				l.deadline = now.Add(c.cfg.LeaseTTL)
				j.leases[i] = l
				return LeaseResponse{Status: StatusLease, Name: name, Index: i, Sum: j.sum, TTL: c.cfg.LeaseTTL}
			}
		}
	}
	return LeaseResponse{}
}

// Renew extends req.Worker's lease on a point to Config.LeaseTTL from
// now. Once the worker no longer holds it — it expired, went to another
// worker, or the point was posted — it fails with errLeaseLost. Unlike
// Lease it works while quiesced: it grants nothing new.
func (c *Coordinator) Renew(req RenewRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	c.met.touchWorkerLocked(req.Worker, now)
	j, ok := c.jobs[req.Name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownManifest, req.Name)
	}
	if req.Index < 0 || req.Index >= j.total {
		return fmt.Errorf("%w: %s index %d, want [0, %d)", errIndexRange, req.Name, req.Index, j.total)
	}
	c.pruneLocked(now) // an expired lease is lost, not revived
	l, ok := j.leases[req.Index]
	if !ok || l.worker != req.Worker {
		return fmt.Errorf("%w: %s point %d is not leased to %q", errLeaseLost, req.Name, req.Index, req.Worker)
	}
	l.deadline = now.Add(c.cfg.LeaseTTL)
	j.leases[req.Index] = l
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

// writePoints writes a manifest's done points to w in ascending index
// order, as the JSON array json.Encoder writes for their
// []manifest.Record, byte for byte, or reports false for an unknown
// manifest. The order is the slots' own: nothing is copied or sorted.
// It holds c.mu only to find each next done slot, and encodes and
// writes that slot without it; a point done meanwhile is written when
// the scan has not passed it yet.
func (c *Coordinator) writePoints(w http.ResponseWriter, name string) bool {
	c.mu.Lock()
	j, ok := c.jobs[name]
	c.mu.Unlock()
	if !ok {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	sep := byte('[')
	for i := c.nextDone(j, 0); i >= 0; i = c.nextDone(j, i+1) {
		buf.Reset()
		buf.WriteByte(sep)
		if enc.Encode(&j.slots[i].rec) != nil {
			return true // a result json cannot encode: the reply stays torn, as the client will tell
		}
		if _, err := w.Write(buf.Bytes()[:buf.Len()-1]); err != nil { // all but Encode's newline
			return true
		}
		sep = ','
	}
	if sep == '[' {
		w.Write([]byte{sep})
	}
	w.Write([]byte("]\n"))
	return true
}

// nextDone returns the lowest index from i on whose slot in j is done, or
// -1 when none is.
func (c *Coordinator) nextDone(j *job, i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ; i < j.total; i++ {
		if j.slots[i].state == done {
			return i
		}
	}
	return -1
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
		Done:       j.done,
		Leased:     len(j.leases),
		Complete:   j.done == j.total,
		TTLSeconds: c.cfg.LeaseTTL.Seconds(),
	}, true
}

// Complete reports whether every registered manifest is fully computed
// (a follow-on registers before its parent completes).
func (c *Coordinator) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.jobs {
		if j.done < j.total {
			return false
		}
	}
	return true
}

// Handler returns the coordinator's HTTP API:
//
//	GET  /v1/manifests           -> {"names": [...]}
//	GET  /v1/manifest/{name}     -> the manifest JSON (refinements: <name>-refine-<sum>)
//	POST /v1/lease               -> LeaseRequest -> LeaseResponse
//	POST /v1/result              -> ResultRequest -> 204 | LeaseResponse (to ResultRequest.Next)
//	POST /v1/renew               -> RenewRequest -> 204 | 409 (lease lost)
//	GET  /v1/points/{name}       -> [{index, result}, ...] in ascending index order
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
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := readJSON(r.Body, r.ContentLength, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := c.Lease(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, &resp)
	})
	mux.HandleFunc("POST /v1/result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if err := readResult(r.Body, r.ContentLength, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		next, err := c.post(req)
		if err != nil {
			http.Error(w, err.Error(), rejectStatus(err))
			return
		}
		if next.Status == "" {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, &next)
	})
	mux.HandleFunc("POST /v1/renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if err := readJSON(r.Body, r.ContentLength, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.Renew(req); err != nil {
			http.Error(w, err.Error(), rejectStatus(err))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/points/{name}", func(w http.ResponseWriter, r *http.Request) {
		if !c.writePoints(w, r.PathValue("name")) {
			http.Error(w, "unknown manifest", http.StatusNotFound)
		}
	})
	mux.HandleFunc("GET /v1/status/{name}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Status(r.PathValue("name"))
		if !ok {
			http.Error(w, "unknown manifest", http.StatusNotFound)
			return
		}
		writeJSON(w, &st)
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

// rejectStatus is the HTTP status of a rejected post or renewal: 4xx for
// what no retry can mend, 500 for a journaling failure worth retrying.
func rejectStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownManifest):
		return http.StatusNotFound
	case errors.Is(err, errStalePlan), errors.Is(err, errLeaseLost):
		return http.StatusConflict
	case errors.Is(err, errIndexRange):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}
