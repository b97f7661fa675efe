package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// Metric directions.
const (
	lower  = "lower"
	higher = "higher"
)

// Metric is one named number of the report. Host-time metrics carry the
// median over their samples plus the quartiles and the sample count, so a
// reader can judge the spread without re-running.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile returns the q-quantile of the sorted samples by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summarize builds a Metric whose value is the median of the samples.
func summarize(name, unit, better string, samples []float64) Metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Metric{Name: name, Unit: unit, Better: better,
		Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// single builds a Metric from one observation (a count, or a probe that
// already averaged over its own loop).
func single(name, unit, better string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Better: better, Value: v, Q1: v, Q3: v, N: 1}
}

// config is what the command line fixes for a run. The workloads see
// only seed, procs and tiny: the programs under test receive generated
// scenarios and manifests, never a workload name.
type config struct {
	seed    int64
	procs   int
	seconds float64 // measured window per workload
	trace   bool    // alternate traced passes with untraced ones
	tiny    bool    // test-sized inputs (bench_test.go); digests are not golden
	tmpRoot string  // every file the run writes lives under here
}

// A workload is one set of inputs plus the closed-loop pass that pushes
// them through the system: the next operation starts when the previous one
// returned.
type workload struct {
	name string
	why  string
	// setupReps is how many times set-up (inputs plus one untimed warm-up
	// pass) is repeated; setup_s is the median. Cheap set-ups repeat so the
	// number is steady; the expensive ones are steady after one.
	setupReps int
	setup     func(ctx context.Context, cfg config) (instance, error)
}

// An instance holds one workload's generated inputs.
type instance interface {
	// pass runs the workload once. tr is nil on untraced passes.
	pass(ctx context.Context, tr *tracer) (passResult, error)
}

// passResult is what one pass did.
type passResult struct {
	points       int   // simulation points completed, or points stored
	netCycles    int64 // Σ Metrics.NetCycles of the points simulated
	packets      int64 // Σ Metrics.Packets
	attempted    int   // operations: runs, leases, posts, appends, queries
	failed       int   // operations that failed or answered wrongly
	digest       string
	claimsFailed int // figures_quick only: paper claims out of band
	// pointWall is Σ Meta.WallTime of the points, the busy time the
	// per-point overhead metrics subtract from the pass wall time.
	pointWall time.Duration
}

// sample is the host-side measurement of one untraced pass.
type sample struct {
	wall    time.Duration
	allocB  uint64
	mallocs uint64
	gcPause time.Duration
}

// workloadReport is everything one workload contributes to the output.
type workloadReport struct {
	Name             string   `json:"name"`
	Why              string   `json:"why"`
	Correct          bool     `json:"correct"`
	Attempted        int      `json:"attempted"`
	Failed           int      `json:"failed"`
	Passes           int      `json:"passes"`
	TracedPasses     int      `json:"traced_passes"`
	Digest           string   `json:"digest"`
	Golden           string   `json:"golden"` // match, mismatch or absent
	DigestMismatches int      `json:"digest_mismatches"`
	FailRatio        float64  `json:"fail_ratio"`
	EndToEnd         []Metric `json:"end_to_end"`
	PerLayer         []Metric `json:"per_layer,omitempty"`

	spans []span
}

// measure runs one pass between two memory snapshots. A collection
// first, outside the timed region, starts every pass from the same heap.
func measure(ctx context.Context, inst instance, tr *tracer) (passResult, sample, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := inst.pass(ctx, tr)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return res, sample{
		wall:    wall,
		allocB:  after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, err
}

// runWorkload sets the workload up, measures passes for cfg.seconds and
// checks every pass's digest against the first one (and the first one
// against golden.json when the seed has an entry).
func runWorkload(ctx context.Context, w workload, cfg config, golden goldenSet) (*workloadReport, error) {
	rep := &workloadReport{Name: w.name, Why: w.why, Golden: "absent"}
	var inst instance
	var setups []float64
	var first passResult
	account := func(res passResult) {
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		if rep.Digest == "" {
			rep.Digest = res.digest
			first = res
		} else if res.digest != rep.Digest {
			rep.DigestMismatches++
		}
	}
	reps := w.setupReps
	if cfg.tiny {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		start := time.Now()
		var err error
		if inst, err = w.setup(ctx, cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		warm, err := inst.pass(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up pass: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		account(warm)
	}
	if want, ok := golden[goldenKey(w.name, cfg.seed)]; ok {
		rep.Golden = "match"
		if want != rep.Digest {
			rep.Golden = "mismatch"
			rep.DigestMismatches++
		}
	}

	var samples []sample
	var tracedWall []float64
	var lastTrace *tracer
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(samples) == 0 || time.Now().Before(deadline) {
		res, s, err := measure(ctx, inst, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", w.name, len(samples)+1, err)
		}
		account(res)
		samples = append(samples, s)
		if cfg.trace {
			tr := newTracer()
			res, s, err := measure(ctx, inst, tr)
			if err != nil {
				return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
			}
			account(res)
			tracedWall = append(tracedWall, s.wall.Seconds())
			lastTrace = tr
		}
	}

	rep.Passes = len(samples)
	rep.TracedPasses = len(tracedWall)
	rep.Correct = rep.Failed == 0 && rep.DigestMismatches == 0
	if rep.Attempted > 0 {
		rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	var wall, pps, mb, allocs, pause []float64
	for _, s := range samples {
		wall = append(wall, s.wall.Seconds())
		pps = append(pps, float64(first.points)/s.wall.Seconds())
		mb = append(mb, float64(s.allocB)/1e6)
		allocs = append(allocs, float64(s.mallocs)/1e3)
		pause = append(pause, float64(s.gcPause)/1e6)
	}
	rep.EndToEnd = []Metric{
		summarize("wall_s", "s", lower, wall),
		summarize("points_per_s", "1/s", higher, pps),
		summarize("alloc_mb", "MB", lower, mb),
		summarize("allocs_k", "k", lower, allocs),
		summarize("setup_s", "s", lower, setups),
	}
	medWall := rep.EndToEnd[0].Value
	rep.PerLayer = []Metric{
		single("sim.net_cycles", "count", lower, float64(first.netCycles)),
		single("sim.packets", "count", lower, float64(first.packets)),
		single("sim.net_mcycles_per_s", "Mcycles/s", higher, float64(first.netCycles)/1e6/medWall),
		single("report.claims_failed", "count", lower, float64(first.claimsFailed)),
		summarize("proc.gc_pause_ms", "ms", lower, pause),
	}
	if lastTrace != nil {
		rep.spans = lastTrace.spans
		rep.PerLayer = append(rep.PerLayer, traceMetrics(lastTrace, tracedWall, medWall)...)
	}
	return rep, nil
}
