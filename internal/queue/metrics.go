package queue

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Runtime visibility for the coordinator: GET /metrics renders the
// counters below in the Prometheus text exposition format, so a fleet
// operator can watch leases outstanding, throughput, re-issue churn and
// per-worker attribution without attaching a debugger. Everything is
// counted under the coordinator's existing mutex — no separate metrics
// lock, no background goroutines.

// rateWindowSize is the sliding window behind the points/s gauge: long
// enough to smooth lease polling jitter, short enough that a stalled
// fleet reads as zero within a minute.
const rateWindowSize = 60 * time.Second

// maxWorkerStats caps the per-worker attribution map so a fleet of
// ephemeral workers (fresh host-pid ids on every restart) cannot grow
// coordinator memory without bound; the stalest entry is evicted.
const maxWorkerStats = 1024

// rateWindow counts events inside a sliding window.
type rateWindow struct {
	window time.Duration
	times  []time.Time
}

func (r *rateWindow) observe(now time.Time) {
	r.pruneBefore(now)
	r.times = append(r.times, now)
}

func (r *rateWindow) pruneBefore(now time.Time) {
	cut := now.Add(-r.window)
	i := 0
	for i < len(r.times) && !r.times[i].After(cut) {
		i++
	}
	if i > 0 {
		r.times = append(r.times[:0], r.times[i:]...)
	}
}

// perSecond is the windowed event rate at time now.
func (r *rateWindow) perSecond(now time.Time) float64 {
	r.pruneBefore(now)
	return float64(len(r.times)) / r.window.Seconds()
}

// workerStats attributes completed points to the worker ids carried by
// LeaseRequest/ResultRequest; lastSeen is refreshed by every lease
// request (a heartbeat) and every accepted result.
type workerStats struct {
	points   int64
	lastSeen time.Time
}

// metricsState is the coordinator's aggregate counters, guarded by the
// coordinator mutex.
type metricsState struct {
	completedTotal     int64 // results accepted (journaled) by this process
	reissuedTotal      int64 // points re-leased after their lease expired
	staleRejected      int64 // posts refused for a plan-fingerprint mismatch
	resultsStoreErrors int64 // accepted points the results store failed to mirror
	followOnTotal      int64 // refinement manifests derived and registered (refineLocked)
	rate               rateWindow
	workers            map[string]*workerStats
}

// touchWorkerLocked refreshes (or creates) a worker's attribution entry.
// Callers hold c.mu.
func (m *metricsState) touchWorkerLocked(id string, now time.Time) *workerStats {
	if id == "" {
		return nil
	}
	ws, ok := m.workers[id]
	if !ok {
		if len(m.workers) >= maxWorkerStats {
			m.evictStalestLocked()
		}
		ws = &workerStats{}
		m.workers[id] = ws
	}
	ws.lastSeen = now
	return ws
}

func (m *metricsState) evictStalestLocked() {
	var stalest string
	var when time.Time
	for id, ws := range m.workers {
		if stalest == "" || ws.lastSeen.Before(when) {
			stalest, when = id, ws.lastSeen
		}
	}
	delete(m.workers, stalest)
}

// writeMetrics renders the Prometheus text format into a buffer under
// the lock — every series is in-memory state, so that costs
// microseconds — and only then writes it out. Writing to the network
// under the mutex would let one slow (or hostile) scraper stall every
// lease and post behind TCP backpressure.
func (c *Coordinator) writeMetrics(out io.Writer) {
	var buf bytes.Buffer
	c.renderMetrics(&buf)
	out.Write(buf.Bytes())
}

func (c *Coordinator) renderMetrics(w *bytes.Buffer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	outstanding := c.pruneLocked(now)

	fmt.Fprintf(w, "# HELP nocsim_leases_outstanding Leases currently granted and unexpired across all manifests.\n")
	fmt.Fprintf(w, "# TYPE nocsim_leases_outstanding gauge\n")
	fmt.Fprintf(w, "nocsim_leases_outstanding %d\n", outstanding)

	fmt.Fprintf(w, "# HELP nocsim_points_completed_total Results accepted and journaled by this coordinator process.\n")
	fmt.Fprintf(w, "# TYPE nocsim_points_completed_total counter\n")
	fmt.Fprintf(w, "nocsim_points_completed_total %d\n", c.met.completedTotal)

	fmt.Fprintf(w, "# HELP nocsim_points_per_second Completed points per second over the last %v.\n", rateWindowSize)
	fmt.Fprintf(w, "# TYPE nocsim_points_per_second gauge\n")
	fmt.Fprintf(w, "nocsim_points_per_second %g\n", c.met.rate.perSecond(now))

	fmt.Fprintf(w, "# HELP nocsim_leases_reissued_total Points re-leased after a previous lease expired.\n")
	fmt.Fprintf(w, "# TYPE nocsim_leases_reissued_total counter\n")
	fmt.Fprintf(w, "nocsim_leases_reissued_total %d\n", c.met.reissuedTotal)

	fmt.Fprintf(w, "# HELP nocsim_posts_rejected_stale_total Posted results refused because they were computed against a different plan.\n")
	fmt.Fprintf(w, "# TYPE nocsim_posts_rejected_stale_total counter\n")
	fmt.Fprintf(w, "nocsim_posts_rejected_stale_total %d\n", c.met.staleRejected)

	fmt.Fprintf(w, "# HELP nocsim_results_store_errors_total Accepted points the results store failed to mirror (journal still holds them; backfill repairs).\n")
	fmt.Fprintf(w, "# TYPE nocsim_results_store_errors_total counter\n")
	fmt.Fprintf(w, "nocsim_results_store_errors_total %d\n", c.met.resultsStoreErrors)

	fmt.Fprintf(w, "# HELP nocsim_followon_manifests_total Refinement manifests derived from completed adaptive manifests and registered for leasing.\n")
	fmt.Fprintf(w, "# TYPE nocsim_followon_manifests_total counter\n")
	fmt.Fprintf(w, "nocsim_followon_manifests_total %d\n", c.met.followOnTotal)

	fmt.Fprintf(w, "# HELP nocsim_manifest_points_total Points in the manifest's plan.\n")
	fmt.Fprintf(w, "# TYPE nocsim_manifest_points_total gauge\n")
	for _, name := range c.names {
		fmt.Fprintf(w, "nocsim_manifest_points_total{manifest=%s} %d\n", quoteLabel(name), c.jobs[name].total)
	}
	fmt.Fprintf(w, "# HELP nocsim_manifest_points_done Points of the manifest completed (including any resumed from the journal).\n")
	fmt.Fprintf(w, "# TYPE nocsim_manifest_points_done gauge\n")
	for _, name := range c.names {
		fmt.Fprintf(w, "nocsim_manifest_points_done{manifest=%s} %d\n", quoteLabel(name), c.jobs[name].done)
	}
	fmt.Fprintf(w, "# HELP nocsim_lease_ttl_seconds How long a lease of the manifest lives after its grant or last renewal; workers renew every third of it.\n")
	fmt.Fprintf(w, "# TYPE nocsim_lease_ttl_seconds gauge\n")
	for _, name := range c.names {
		fmt.Fprintf(w, "nocsim_lease_ttl_seconds{manifest=%s} %g\n", quoteLabel(name), c.cfg.LeaseTTL.Seconds())
	}

	ids := make([]string, 0, len(c.met.workers))
	for id := range c.met.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(w, "# HELP nocsim_worker_points_completed_total Accepted results attributed to each worker id.\n")
	fmt.Fprintf(w, "# TYPE nocsim_worker_points_completed_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(w, "nocsim_worker_points_completed_total{worker=%s} %d\n", quoteLabel(id), c.met.workers[id].points)
	}
	fmt.Fprintf(w, "# HELP nocsim_worker_last_seen_timestamp_seconds Unix time each worker last leased or posted.\n")
	fmt.Fprintf(w, "# TYPE nocsim_worker_last_seen_timestamp_seconds gauge\n")
	for _, id := range ids {
		fmt.Fprintf(w, "nocsim_worker_last_seen_timestamp_seconds{worker=%s} %d\n", quoteLabel(id), c.met.workers[id].lastSeen.Unix())
	}
}

// quoteLabel escapes a label value per the Prometheus text format
// (worker ids are host-derived and untrusted).
func quoteLabel(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
