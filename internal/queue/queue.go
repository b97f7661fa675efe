// Package queue turns a manifest into a distributed work-queue: a
// Coordinator serves a set of manifests' points over HTTP as expiring
// {manifest, index} leases, and Workers lease points, compute them with
// nocsim.Run, and post the results back.
//
// The design leans entirely on the manifest layer's guarantees. Every
// point is a self-contained, deterministic job (resolved grid + index +
// per-point exp.Seed stream), so the coordinator never ships code or
// state — only a name and an index — and a point computes bit-identically
// wherever it runs. Results are journaled through the same
// manifest.DirStore the offline path uses: a coordinator restarted over
// its directory resumes from the journal exactly as a resumed local run
// would, and the final journal is what cmd/figures reassembles tables
// from.
//
// Protocol: a worker asks for its first point with POST /v1/lease and
// posts each result to POST /v1/result, asking in the same body for its
// next lease (ResultRequest.Next). The coordinator journals the point,
// then answers with that LeaseResponse — lease, wait or done — so a
// steady worker pays one HTTP exchange per point. It goes back to
// /v1/lease only when a reply carried nothing: after a wait, after a
// failure, or against a coordinator that predates Next and answers 204.
// A rejection no retry can mend is a 4xx (404 unknown manifest, 409
// stale plan, 400 index out of range) and the worker gives up on that
// post at once; only transport errors and 5xx (a journaling failure)
// are retried. A post that fails grants no lease.
//
// Bodies: a request body, and a reply body the Client decodes, is read
// whole into a pooled buffer sized from its Content-Length, up to 16
// MiB, and must be exactly one JSON value: the coordinator answers bytes
// after it other than white space with 400. A post is encoded once, into
// a pooled buffer, and every retry sends the same bytes. The coordinator
// decodes a post in the layout json.Marshal writes without reflection
// (internal/jsonline), and any other body with json.Unmarshal, which
// stays the reference for what a body means; the Client decodes a lease
// reply the same way. Replies are encoded into pooled buffers and sent
// with their Content-Length. None of this changes a byte: a post is
// json.Marshal's encoding of the request, a reply json.Encoder's of the
// value, and a journal line json.Marshal's of the record and a newline.
// GET /v1/points/{name}
// answers the journaled points in ascending index order by
// construction, not by a sort: a job holds its points in one slice of
// slots indexed by point, and the reply is that slice's done slots
// encoded one by one straight into the response, byte-identical to
// json.Encoder's encoding of the []manifest.Record. This reply is
// streamed, without a Content-Length or the 16 MiB cap, and
// Client.Points decodes it a record at a time straight into its map.
//
// Renewal: every grant carries the lease's TTL (Config.LeaseTTL). While
// nocsim.Run computes the point, the worker renews the lease every TTL/3
// on its own clock with POST /v1/renew. The coordinator extends a lease
// only for the worker that holds it and otherwise answers 409 (lease
// lost), and the worker stops renewing. A grant without a TTL comes from
// a coordinator that predates renewal, and is not renewed.
//
// Fault model: a lease expires one TTL after its last renewal. A point
// is re-issued only when its worker stops renewing (it died, hung or
// lost the coordinator), never for running long: every run is bounded
// by its warm-up cap and measurement window, and the worker renews
// while it runs. A worker that was only stalled and posts after expiry
// is harmless — the first result for a point wins and duplicates are
// acknowledged without a second journal line, so every point appears
// exactly once in the journal. A post whose reply is lost after the
// coordinator applied it is retried and acknowledged as a duplicate;
// the retry is handed the lease the lost reply carried, while that
// lease stands, so the point it names is neither orphaned until its TTL
// nor leased twice. (A retry that arrives while the first attempt is
// still journaling gets a fresh lease, and the first attempt's grant
// expires unused.) A lost renewal reply is harmless: the next renewal
// extends the lease again. The coordinator caps only the number of
// outstanding leases; simulation concurrency stays bounded per worker
// process by its own leaf budget (exp.SetLeafBudget).
//
// The coordinator runs no background goroutines: expired leases are
// pruned lazily inside each Lease call, so shutting the HTTP server down
// leaves nothing behind.
//
// Fleet hardening: with Config.AuthToken set the whole HTTP surface
// demands "Authorization: Bearer <token>" (Client.Token attaches it; a
// 401 is fatal for a Worker — wrong credentials never retry). GET
// /metrics exposes Prometheus-text counters: leases outstanding,
// completed points and a windowed points/s, re-issued leases, rejected
// stale posts, and per-worker attribution keyed by the worker id already
// carried in every lease, renewal and post.
package queue

import (
	"time"

	"repro/nocsim"
)

// DefaultLeaseTTL is the lease TTL of a Config that sets none.
const DefaultLeaseTTL = 10 * time.Second

// Lease statuses returned by the coordinator.
const (
	// StatusLease grants one point: run it and post the result.
	StatusLease = "lease"
	// StatusWait means no point is currently available (all leased, or
	// the lease cap is reached) but the work is not finished: back off
	// and ask again.
	StatusWait = "wait"
	// StatusDone means every point of the requested scope is complete.
	StatusDone = "done"
)

// LeaseRequest asks the coordinator for one point to compute.
type LeaseRequest struct {
	// Worker identifies the requester, for lease attribution and logs.
	Worker string `json:"worker"`
	// Name restricts the lease to one manifest; empty means any manifest
	// the coordinator serves.
	Name string `json:"name,omitempty"`
}

// LeaseResponse is the coordinator's answer to a lease request.
type LeaseResponse struct {
	// Status is one of StatusLease, StatusWait, StatusDone.
	Status string `json:"status"`
	// Name and Index identify the granted point when Status is
	// StatusLease: the {manifest, index} pair that, with Manifest.Point,
	// is the complete job description.
	Name  string `json:"name,omitempty"`
	Index int    `json:"index,omitempty"`
	// Sum fingerprints the plan the lease belongs to. A worker whose
	// cached manifest carries a different sum must re-fetch before
	// computing — a coordinator restarted with different options would
	// otherwise be handed results from a stale plan.
	Sum string `json:"sum,omitempty"`
	// TTL is how long the lease lives unless renewed (RenewRequest);
	// zero from a coordinator that predates renewal.
	TTL time.Duration `json:"ttl_ns,omitempty"`
}

// RenewRequest extends the requester's lease on one point by the lease
// TTL. The coordinator answers 204, or 409 once the lease is lost.
type RenewRequest struct {
	Worker string `json:"worker"`
	Name   string `json:"name"`
	Index  int    `json:"index"`
}

// ResultRequest posts one computed point back to the coordinator.
type ResultRequest struct {
	Worker string `json:"worker"`
	Name   string `json:"name"`
	Index  int    `json:"index"`
	// Sum is the plan fingerprint the result was computed against
	// (echoed from the lease). The coordinator rejects a mismatch rather
	// than journal a number from a different plan; empty skips the check
	// (trusted in-process callers).
	Sum    string        `json:"sum,omitempty"`
	Result nocsim.Result `json:"result"`
	// Next, when set, asks for the poster's next lease in the same
	// exchange: the coordinator answers an accepted post with the
	// LeaseResponse to Next (200) instead of 204, and answers 204 when
	// the lease request fails or the coordinator predates the field
	// (it ignores unknown fields). A rejected post grants nothing.
	Next *LeaseRequest `json:"next,omitempty"`
}

// Status reports one manifest's progress.
type Status struct {
	Name     string `json:"name"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Leased   int    `json:"leased"`
	Complete bool   `json:"complete"`
	// TTLSeconds is how long a lease of this manifest lives after its
	// grant or its last renewal (Config.LeaseTTL).
	TTLSeconds float64 `json:"ttl_seconds"`
}
