package main

import (
	"context"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, where string, ms []Metric) {
	t.Helper()
	for _, m := range ms {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q", where, m.Name)
		}
		if m.Unit == "" || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: %s has unit %q, direction %q", where, m.Name, m.Unit, m.Better)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", where, m.Name, m.Value)
		}
	}
}

// TestWorkloadsTiny runs every workload once at test size, traced pass
// included, and holds what it emits against BENCHMARK.json.
func TestWorkloadsTiny(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	perLayer := map[string]bool{}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = true
	}
	cfg := config{seed: 99, procs: 2, seconds: 0.001, trace: true, tiny: true, tmpRoot: t.TempDir()}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, bf.Workloads[i].Name, w.name)
		}
		start := time.Now()
		rep, err := runWorkload(context.Background(), w, cfg, goldenSet{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %v", w.name, time.Since(start))
		if !rep.Correct || rep.Attempted == 0 || rep.Passes == 0 || rep.TracedPasses == 0 || len(rep.spans) == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d digest mismatches=%d passes=%d traced=%d spans=%d",
				w.name, rep.Correct, rep.Attempted, rep.Failed, rep.DigestMismatches, rep.Passes, rep.TracedPasses, len(rep.spans))
		}
		checkMetrics(t, w.name, rep.EndToEnd)
		checkMetrics(t, w.name, rep.PerLayer)
		if len(rep.EndToEnd) != len(bf.EndToEnd) {
			t.Errorf("%s emits %d end-to-end metrics, BENCHMARK.json lists %d", w.name, len(rep.EndToEnd), len(bf.EndToEnd))
		}
		for _, e := range bf.EndToEnd {
			m, ok := metricByName(rep.EndToEnd, e.Name)
			if !ok || m.Unit != e.Unit || m.Better != e.Better || m.Value <= 0 {
				t.Errorf("%s: end-to-end %s: emitted %+v (found %v), BENCHMARK.json wants unit %q direction %q", w.name, e.Name, m, ok, e.Unit, e.Better)
			}
		}
		for _, m := range rep.PerLayer {
			if !perLayer[m.Name] {
				t.Errorf("%s emits per-layer %s, which BENCHMARK.json does not list", w.name, m.Name)
			}
		}
		left, err := os.ReadDir(cfg.tmpRoot)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) > 0 {
			t.Errorf("%s left %d entries in its temp dir, first %s", w.name, len(left), left[0].Name())
		}
	}
}

// TestProbesMatchBenchmarkFile runs the probes and checks that, with what
// a traced workload emits, they are exactly BENCHMARK.json's per-layer
// list. It takes several seconds, so -short skips it.
func TestProbesMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("the probes take several seconds")
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 99, procs: 2, seconds: 0.001, trace: true, tiny: true, tmpRoot: t.TempDir()}
	probes, err := runProbes(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "probes", probes)
	rep, err := runWorkload(context.Background(), workloads[len(workloads)-1], cfg, goldenSet{})
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]Metric{}
	for _, m := range append(probes, rep.PerLayer...) {
		if _, dup := emitted[m.Name]; dup {
			t.Errorf("per-layer %s emitted twice", m.Name)
		}
		emitted[m.Name] = m
	}
	if len(emitted) != len(bf.PerLayer) {
		t.Errorf("%d per-layer metrics emitted, BENCHMARK.json lists %d", len(emitted), len(bf.PerLayer))
	}
	for _, e := range bf.PerLayer {
		m, ok := emitted[e.Name]
		if !ok || m.Unit != e.Unit || m.Better != e.Better {
			t.Errorf("per-layer %s: emitted %+v (found %v), BENCHMARK.json wants unit %q direction %q", e.Name, m, ok, e.Unit, e.Better)
		}
	}
}

func TestQuantile(t *testing.T) {
	m := summarize("x", "s", lower, []float64{4, 1, 3, 2, 5})
	if m.Value != 3 || m.Q1 != 2 || m.Q3 != 4 || m.N != 5 {
		t.Errorf("summarize = %+v", m)
	}
	if m := summarize("x", "s", lower, []float64{1, 2}); m.Value != 1.5 {
		t.Errorf("median of two = %v", m.Value)
	}
}

// TestSelfTime checks that children running in parallel are covered once:
// self time is the span minus the union of its children, clipped to it.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "pass", Layer: "bench", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", Layer: "nocsim", Parent: 0, StartNs: 10, EndNs: 50},
		{Name: "b", Layer: "nocsim", Parent: 0, StartNs: 30, EndNs: 70},
		{Name: "c", Layer: "queue", Parent: 0, StartNs: 90, EndNs: 120},
		{Name: "d", Layer: "manifest", Parent: 1, StartNs: 20, EndNs: 25},
	}}
	self := tr.selfByLayer()
	want := map[string]time.Duration{"bench": 100 - 60 - 10, "nocsim": 35 + 40, "queue": 30, "manifest": 5}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %d, want %d", layer, self[layer], w)
		}
	}
}
