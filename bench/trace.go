package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one simulation point share an ID (the
// manifest sum and point index), so a point's life reads across layers.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	ID      string `json:"id,omitempty"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. A nil *tracer records nothing, so workloads call it unconditionally
// and untraced passes pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index, which is also the parent
// handle for the spans it causes.
func (t *tracer) start(name, layer, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, ID: id, Parent: parent, StartNs: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].EndNs = now
	t.mu.Unlock()
}

// tag sets a span's ID once it is known: a lease learns its point only
// from the answer.
func (t *tracer) tag(i int, id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].ID = id
	t.mu.Unlock()
}

// add records a span whose interval is already known: a point's run time
// as its Result reports it, ending when the executor handed the point over.
func (t *tracer) add(name, layer, id string, parent int, end time.Time, d time.Duration) {
	if t == nil {
		return
	}
	endNs := end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, ID: id, Parent: parent, StartNs: endNs - d.Nanoseconds(), EndNs: endNs})
	t.mu.Unlock()
}

// traceLayers are the layers whose self time the report names. Every
// workload emits all of them; a layer a workload never enters reads 0.
var traceLayers = []string{"bench", "sweep", "manifest", "nocsim", "queue", "results", "resultsrv", "report"}

// selfByLayer sums, per layer, each span's duration minus the part of it
// that its child spans cover. Children that ran in parallel overlap, so
// coverage is the union of their intervals, clipped to the parent.
func (t *tracer) selfByLayer() map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.StartNs
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Layer] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// traceMetrics turns the last traced pass into per-layer self times and
// the tracing overhead: traced passes against the untraced median.
func traceMetrics(t *tracer, tracedWall []float64, untracedMedian float64) []Metric {
	self := t.selfByLayer()
	ms := []Metric{
		single("trace.spans", "count", lower, float64(len(t.spans))),
		single("trace.overhead_pct", "%", lower,
			100*(median(tracedWall)-untracedMedian)/untracedMedian),
	}
	for _, layer := range traceLayers {
		ms = append(ms, single("trace.self_ms."+layer, "ms", lower, float64(self[layer])/1e6))
	}
	return ms
}

// writeSpans writes the spans of each workload's last traced pass.
func writeSpans(path string, reports []*workloadReport) error {
	out := make(map[string][]span, len(reports))
	for _, r := range reports {
		out[r.Name] = r.spans
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
