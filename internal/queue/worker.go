package queue

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/nocsim"
	"repro/nocsim/manifest"
)

// A Worker drains a coordinator: it leases points, resolves each to its
// self-contained scenario (Manifest.Point, which carries the point's own
// exp.Seed-derived RNG stream), computes it with nocsim.Run, and posts
// the result back with retry. Results are therefore bit-identical to an
// in-process manifest.Run of the same manifest, wherever the worker
// happens to execute.
//
// Workers bounds the parallel lease loops; the number of concurrently
// executing simulations inside this process additionally stays under the
// process-wide leaf budget (exp.SetLeafBudget), exactly as in a local
// run.
type Worker struct {
	// Client is the coordinator connection.
	Client *Client
	// ID attributes this worker's leases; empty derives host-pid.
	ID string
	// Workers bounds the parallel lease loops (<= 0 means GOMAXPROCS).
	Workers int
	// Name restricts the worker to one manifest; empty drains them all.
	Name string
	// Poll is the back-off between lease attempts while the coordinator
	// reports wait (zero means 500 ms).
	Poll time.Duration
	// MaxErrors is how many consecutive coordinator failures (unreachable,
	// bad responses) a lease loop tolerates before giving up; zero means
	// 10. A restarting coordinator is survived; a dead one is not spun on
	// forever.
	MaxErrors int
	// OnPoint, when non-nil, is called after each successfully posted
	// point. Calls may be concurrent across lease loops.
	OnPoint func(name string, index int)

	mu    sync.Mutex
	cache map[string]cachedManifest
}

type cachedManifest struct {
	m   *manifest.Manifest
	sum string
}

func (w *Worker) id() string {
	if w.ID != "" {
		return w.ID
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 500 * time.Millisecond
}

func (w *Worker) maxErrors() int {
	if w.MaxErrors > 0 {
		return w.MaxErrors
	}
	return 10
}

// manifest returns the named manifest matching the lease's plan
// fingerprint, fetching (or re-fetching) and caching it as needed: a
// worker pays one manifest download per study, then every lease is just
// {name, index, sum} over the wire. A cached manifest whose sum no
// longer matches — a coordinator restarted with a different plan — is
// discarded rather than silently computed against.
func (w *Worker) manifest(ctx context.Context, name, sum string) (*manifest.Manifest, error) {
	w.mu.Lock()
	c, ok := w.cache[name]
	w.mu.Unlock()
	if ok && (sum == "" || c.sum == sum) {
		return c.m, nil
	}
	m, err := w.Client.Manifest(ctx, name)
	if err != nil {
		return nil, err
	}
	got, err := manifest.Sum(m)
	if err != nil {
		return nil, err
	}
	if sum != "" && got != sum {
		// The plan changed between the lease and the fetch (coordinator
		// replanning); treat as transient and re-lease.
		return nil, fmt.Errorf("queue: fetched manifest %q has plan %s, lease says %s", name, got, sum)
	}
	w.mu.Lock()
	if w.cache == nil {
		w.cache = map[string]cachedManifest{}
	}
	w.cache[name] = cachedManifest{m: m, sum: got}
	w.mu.Unlock()
	return m, nil
}

// Run leases and computes points until the coordinator reports the scope
// done (returning nil), the context is cancelled, or a point fails.
// Cancelling ctx mid-point simply abandons the lease — renewals stop, it
// expires and is re-issued elsewhere, which is the crash story too.
func (w *Worker) Run(ctx context.Context) error {
	n := w.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	_, err := exp.Map(ctx, n, n, func(ctx context.Context, _ int) (struct{}, error) {
		return struct{}{}, w.loop(ctx)
	})
	return err
}

// loop is one lease loop: lease, compute, post, repeat. Each post asks
// for the next lease (ResultRequest.Next), so a drained point costs one
// HTTP exchange; loop calls /v1/lease only when the reply carried none —
// for the first point, after a wait or a failure, and against a
// coordinator that answers the post with 204.
func (w *Worker) loop(ctx context.Context) error {
	id := w.id()
	keep := &renewer{client: w.Client, ctx: ctx}
	keep.t = time.AfterFunc(math.MaxInt64, keep.renew) // armed by start
	defer keep.stop()
	// consecutive counts coordinator failures of any kind — lease,
	// manifest fetch, post — and only a fully delivered point resets it,
	// so a coordinator that answers leases but can never serve the
	// manifest (or accept results) still trips the backstop instead of
	// being hammered forever. Every failure also backs off by the poll
	// interval before the next attempt.
	consecutive := 0
	fail := func(err error) (bool, error) {
		if ctx.Err() != nil {
			return true, ctx.Err()
		}
		if errors.Is(err, ErrUnauthorized) {
			// Wrong or missing credentials are a configuration error, not
			// a transient hiccup: retrying would hammer the coordinator
			// with requests it will never accept.
			return true, fmt.Errorf("queue: worker %s: %w", id, err)
		}
		consecutive++
		if consecutive >= w.maxErrors() {
			return true, fmt.Errorf("queue: worker %s giving up after %d consecutive coordinator errors: %w", id, consecutive, err)
		}
		if err := sleep(ctx, w.poll()); err != nil {
			return true, err
		}
		return false, nil
	}
	ask := LeaseRequest{Worker: id, Name: w.Name}
	var carried LeaseResponse // the lease the last post's reply carried
	var post ResultRequest    // one per loop, so no post copies it to the heap
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ls := carried
		carried = LeaseResponse{}
		if ls.Status == "" {
			var err error
			if ls, err = w.Client.Lease(ctx, ask); err != nil {
				if stop, err := fail(err); stop {
					return err
				}
				continue
			}
		}
		switch ls.Status {
		case StatusDone:
			return nil
		case StatusWait:
			if err := sleep(ctx, w.poll()); err != nil {
				return err
			}
		case StatusLease:
			m, err := w.manifest(ctx, ls.Name, ls.Sum)
			if err != nil {
				if stop, err := fail(err); stop {
					return err
				}
				continue
			}
			_, sc, err := m.Point(ls.Index)
			if err != nil {
				return fmt.Errorf("queue: worker %s: %w", id, err)
			}
			keep.start(RenewRequest{Worker: id, Name: ls.Name, Index: ls.Index}, ls.TTL)
			r, err := nocsim.Run(ctx, sc)
			keep.stop()
			if err != nil {
				// A failed simulation is not a coordinator hiccup: the same
				// point would fail on every worker, so surface it rather
				// than let the lease cycle forever.
				return fmt.Errorf("queue: worker %s: %s point %d: %w", id, ls.Name, ls.Index, err)
			}
			r.Meta.PointIndex = ls.Index
			post = ResultRequest{Worker: id, Name: ls.Name, Index: ls.Index, Sum: ls.Sum, Result: r, Next: &ask}
			carried, err = w.Client.postRetry(ctx, &post, 0)
			if err != nil {
				if stop, err := fail(err); stop {
					return err
				}
				continue
			}
			consecutive = 0 // one point fully delivered
			if w.OnPoint != nil {
				w.OnPoint(ls.Name, ls.Index)
			}
		default:
			if stop, err := fail(fmt.Errorf("queue: unknown lease status %q", ls.Status)); stop {
				return err
			}
		}
	}
}

// renewer renews a lease loop's current lease every TTL/3 from start
// until stop, or until the coordinator answers that it is lost (any
// 4xx); after a transport error or a 5xx it tries again next tick. Its
// one timer is re-armed for each point: renewal allocates nothing per
// point.
type renewer struct {
	client *Client
	ctx    context.Context
	t      *time.Timer

	mu    sync.Mutex // held across a renewal, so stop waits for one in flight
	req   RenewRequest
	every time.Duration // zero: not renewing
}

// start renews req every ttl/3 until stop. A zero ttl, from a
// coordinator that predates renewal, renews nothing.
func (r *renewer) start(req RenewRequest, ttl time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.req, r.every = req, ttl/3; r.every > 0 {
		r.t.Reset(r.every)
	}
}

// stop ends the renewals: once it returns, none is in flight and none
// follows.
func (r *renewer) stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.every = 0
	r.t.Stop()
}

func (r *renewer) renew() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.every == 0 {
		return // stopped while this tick waited for the lock
	}
	var se *statusError
	if err := r.client.Renew(r.ctx, r.req); !errors.As(err, &se) || se.code >= 500 {
		r.t.Reset(r.every) // renewed, or worth another try; a lost lease is left to the post
	}
}

func sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
