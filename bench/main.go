// Command bench is the repository's one benchmark: five closed-loop
// workloads over the simulator, the sweep stack, the work-queue and the
// stores, each checked against a digest of its outputs and each timed from
// outside, by calling the layers' public functions. README.md explains the
// workloads and how to read the output; BENCHMARK.json at the root of the
// repository names the command, the workloads and the metrics.
//
//	bash bench/run.sh -seed 1                          # all five, one JSON document
//	bash bench/run.sh -workload fleet_drain -trace 1   # one workload, per-layer metrics
//	bash bench/run.sh -selfcheck                       # two sets of runs against the bounds
//	bash bench/run.sh -update-golden                   # rewrite bench/golden.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"

	"repro/internal/exp"
)

// gitCommit is stamped by run.sh.
var gitCommit = "unknown"

// workloads lists the benchmark's workloads in the order they run. The
// names are cited by issues and by BENCHMARK.json; do not rename them.
var workloads = []workload{
	{"engine_lowload", "nine full-window points far below saturation: per-run set-up, RNG draws and skip-ahead dominate, the router pipeline idles", 3, engineLowload},
	{"engine_saturated", "six points at 0.85 of saturation on 8x8 uniform and 5x5 transpose: host time is the router pipeline, set-up is noise", 1, engineSaturated},
	{"figures_quick", "plan, run, render and claim-check the baseline, fig10 and pi manifests in process: calibration search and the worker pool do most of the work", 1, figuresQuick},
	{"fleet_drain", "300 cheap points leased over loopback HTTP from a journaling, mirrored coordinator: per-point lease, post and fsync overhead shows", 1, fleetDrain},
	{"store_replay", "3000 precomputed results in both stores, the last 60 appended in the pass, then reloaded, replayed, queried, exported, compacted and rendered: no simulation, only the store layer", 3, storeReplay},
}

// env describes the machine and the settings of a run.
type env struct {
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GOARCH     string         `json:"goarch"`
	GitCommit  string         `json:"git_commit"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Passes     map[string]int `json:"passes"`
}

// document is the full report of a run over every workload.
type document struct {
	Env       env               `json:"env"`
	Workloads []*workloadReport `json:"workloads"`
	PerLayer  []Metric          `json:"per_layer"`
}

// contractResult is the last line of standard output when one workload
// runs: the form the benchmark driver reads.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractMetrics(ms []Metric) map[string]contractValue {
	out := make(map[string]contractValue, len(ms))
	for _, m := range ms {
		out[m.Name] = contractValue{m.Value, m.Unit}
	}
	return out
}

func metricByName(ms []Metric, name string) (Metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "run only this workload and end with the driver's one-line result")
	seed := flag.Int64("seed", 1, "the only input of the workloads: equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 10, "measured window per workload")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 alternates traced passes and prints the per-layer metrics")
	procs := flag.Int("procs", min(runtime.NumCPU(), 4), "GOMAXPROCS, sweep workers and fleet workers: never more threads or connections than this")
	traceOut := flag.String("trace-out", filepath.Join(".bench_build", "trace.json"), "where the traced passes' spans are written at exit")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the two sets against the bounds in BENCHMARK.json")
	updateGolden := flag.Bool("update-golden", false, "rewrite golden.json from seeds 1 and 2")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *procs < 1 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("want -procs >= 1, -seconds > 0 and -trace 0 or 1")
	}
	runtime.GOMAXPROCS(*procs)
	exp.SetLeafBudget(*procs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Every file the run writes lives under one directory inside the
	// checkout, removed on the way out.
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(base, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := config{seed: *seed, procs: *procs, seconds: *seconds, tmpRoot: tmp}

	golden, err := loadGolden()
	if err != nil {
		return err
	}
	switch {
	case *updateGolden:
		return rewriteGolden(ctx, cfg, golden)
	case *selfcheck:
		return selfCheck(ctx, cfg, golden)
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		cfg.trace = *trace == 1
		rep, err := runWorkload(ctx, w, cfg, golden)
		if err != nil {
			return err
		}
		out := contractResult{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed + rep.DigestMismatches}
		if cfg.trace {
			probes, err := runProbes(ctx, cfg)
			if err != nil {
				return err
			}
			out.Metrics = contractMetrics(append(rep.PerLayer, probes...))
			if err := writeSpans(*traceOut, []*workloadReport{rep}); err != nil {
				return err
			}
		} else {
			out.Metrics = contractMetrics(rep.EndToEnd)
		}
		return printResult(out, rep)
	}

	// Every workload, one after another, traced passes included.
	cfg.trace = true
	doc := document{Env: env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: *procs, GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		GitCommit: gitCommit, Seed: *seed, Seconds: *seconds, Passes: map[string]int{},
	}}
	ok := true
	for _, w := range workloads {
		rep, err := runWorkload(ctx, w, cfg, golden)
		if err != nil {
			return err
		}
		doc.Workloads = append(doc.Workloads, rep)
		doc.Env.Passes[w.name] = rep.Passes
		ok = ok && rep.Correct
	}
	if doc.PerLayer, err = runProbes(ctx, cfg); err != nil {
		return err
	}
	if err := writeSpans(*traceOut, doc.Workloads); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !ok {
		return fmt.Errorf("a workload failed an operation or a digest check")
	}
	return nil
}

// printResult prints the driver's line. An incorrect run still prints it,
// so the counts are seen, and then exits non-zero.
func printResult(out contractResult, rep *workloadReport) error {
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	wall := rep.EndToEnd[0]
	fmt.Fprintf(os.Stderr, "%s: %d passes, wall_s q1 %.4f median %.4f q3 %.4f, digest %s, golden %s\n",
		rep.Name, rep.Passes, wall.Q1, wall.Value, wall.Q3, rep.Digest, rep.Golden)
	fmt.Println(string(data))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed, %d digest mismatches", rep.Name, rep.Failed, rep.Attempted, rep.DigestMismatches)
	}
	return nil
}

// rewriteGolden recomputes the digests of the golden seeds on this
// architecture and writes golden.json back to the source tree.
func rewriteGolden(ctx context.Context, cfg config, golden goldenSet) error {
	path, err := goldenFile()
	if err != nil {
		return err
	}
	for _, seed := range goldenSeeds {
		cfg.seed = seed
		for _, w := range workloads {
			inst, err := w.setup(ctx, cfg)
			if err != nil {
				return err
			}
			res, err := inst.pass(ctx, nil)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("%s seed %d: %d operations failed", w.name, seed, res.failed)
			}
			golden[goldenKey(w.name, seed)] = res.digest
			fmt.Fprintf(os.Stderr, "%s = %s\n", goldenKey(w.name, seed), res.digest)
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back:
// the bounds for -selfcheck and the names bench_test.go compares.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var b benchmarkFile
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &b, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: run from the repository root or from bench/")
}

// selfCheck runs the whole set twice and holds the second set's medians
// against the first's: worse by more than the metric's bound fails.
func selfCheck(ctx context.Context, cfg config, golden goldenSet) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	var sets [2]map[string][]Metric
	for s := range sets {
		sets[s] = map[string][]Metric{}
		for _, w := range workloads {
			rep, err := runWorkload(ctx, w, cfg, golden)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s: %d operations failed, %d digest mismatches", w.name, rep.Failed, rep.DigestMismatches)
			}
			sets[s][w.name] = rep.EndToEnd
		}
	}
	fmt.Printf("%-17s %-13s %12s %12s %8s %6s  %s\n", "workload", "metric", "first", "second", "worse", "bound", "verdict")
	failed := 0
	for _, w := range workloads {
		for _, e := range bf.EndToEnd {
			a, okA := metricByName(sets[0][w.name], e.Name)
			b, okB := metricByName(sets[1][w.name], e.Name)
			if !okA || !okB {
				return fmt.Errorf("%s emits no %s", w.name, e.Name)
			}
			worse := (b.Value - a.Value) / a.Value
			if e.Better == higher {
				worse = -worse
			}
			verdict := "PASS"
			if worse > e.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-17s %-13s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n", w.name, e.Name, a.Value, b.Value, 100*worse, 100*e.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metrics moved by more than their bound on unchanged code", failed)
	}
	return nil
}
