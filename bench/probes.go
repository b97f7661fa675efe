package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/queue"
	"repro/internal/report"
	"repro/internal/resultsrv"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/traffic"
	"repro/internal/volt"
	"repro/nocsim"
	"repro/nocsim/manifest"
	"repro/nocsim/results"
)

// The probes time each layer's public calls from outside, on inputs made
// from the same seed, meshes and loads as the workloads they explain. Each
// loop count is fixed, so the same work is timed on every commit. README.md
// says which end-to-end metric each probe should move, on which workload.

// perCall runs fn n times and returns nanoseconds and heap allocations per
// call.
func perCall(n int, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeSet collects the metrics; the first error stops the remaining
// probes.
type probeSet struct {
	cfg     config
	metrics []Metric
}

func (p *probeSet) add(name, unit, better string, v float64) {
	p.metrics = append(p.metrics, single(name, unit, better, v))
}

// spanNs returns the durations of the spans with the given name.
func spanNs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runProbes runs every probe once, serially.
func runProbes(ctx context.Context, cfg config) ([]Metric, error) {
	p := &probeSet{cfg: cfg}
	for _, probe := range []func(context.Context) error{
		p.noc, p.traffic, p.sim, p.core, p.exp, p.nocsim, p.figures, p.fleet, p.store,
	} {
		if err := probe(ctx); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	p.add("proc.peak_rss_mb", "MB", lower, peakRSSMB())
	return p.metrics, nil
}

// stepNetwork drives a bare Network with a bench-owned Bernoulli injector
// (pktProb packets per node per cycle, uniform destinations) and returns
// the time per Step and the activity of the timed steps.
func (p *probeSet) stepNetwork(width int, pktProb float64, steps int) (float64, noc.NetworkActivity, error) {
	c := noc.DefaultConfig()
	c.Width, c.Height = width, width
	n, err := noc.NewNetwork(c)
	if err != nil {
		return 0, noc.NetworkActivity{}, err
	}
	rng := rand.New(rand.NewSource(p.cfg.seed))
	cycle := func() {
		for s := 0; s < c.Nodes(); s++ {
			if rng.Float64() < pktProb {
				d := rng.Intn(c.Nodes() - 1)
				if d >= s {
					d++
				}
				n.NewPacket(noc.NodeID(s), noc.NodeID(d), 0, 0)
			}
		}
		n.Step()
	}
	for i := 0; i < 3000; i++ { // fill the pipeline before timing
		cycle()
	}
	before := n.Activity()
	ns, _ := perCall(steps, cycle)
	after := n.Activity()
	return ns, noc.NetworkActivity{RouterActivity: after.RouterActivity.Sub(before.RouterActivity), Cycles: after.Cycles - before.Cycles}, nil
}

func (p *probeSet) noc(context.Context) error {
	// Packet probabilities per node per cycle; x20 flits per packet gives
	// the load: light 0.04 as in engine_lowload, heavy 0.39 on 5x5 and
	// 0.30 on 8x8, which is 0.85 of saturation as in engine_saturated.
	for _, c := range []struct {
		name  string
		width int
		prob  float64
		steps int
	}{
		{"noc.step_ns_idle", 5, 0, 2_000_000},
		{"noc.step_ns_light", 5, 0.002, 200_000},
		{"noc.step_ns_heavy", 5, 0.0195, 60_000},
		{"noc.step_ns_heavy_8x8", 8, 0.015, 25_000},
	} {
		ns, act, err := p.stepNetwork(c.width, c.prob, c.steps)
		if err != nil {
			return err
		}
		p.add(c.name, "ns", lower, ns)
		if c.name == "noc.step_ns_heavy" {
			p.add("noc.flit_hop_ns", "ns", lower, ns*float64(c.steps)/float64(act.LinkFlits))
		}
	}
	ns, allocs := perCall(300, func() { noc.NewNetwork(noc.DefaultConfig()) })
	p.add("noc.new_network_us", "us", lower, ns/1e3)
	p.add("noc.new_network_allocs", "count", lower, allocs)
	return nil
}

func (p *probeSet) traffic(context.Context) error {
	c := noc.DefaultConfig()
	for _, r := range []struct {
		name string
		rate float64
	}{{"traffic.node_cycle_ns_low", 0.02}, {"traffic.node_cycle_ns_high", 0.39}} {
		inj, err := traffic.NewInjector(c, traffic.NewUniform(c), r.rate, p.cfg.seed)
		if err != nil {
			return err
		}
		net, err := noc.NewNetwork(c)
		if err != nil {
			return err
		}
		// Injection alone would pile packets up at the sources, so the
		// network is drained between timed blocks; that also returns the
		// packets to the pool a steady-state run draws from.
		const blocks, block = 100, 500
		var total float64
		for b := 0; b < blocks; b++ {
			ns, _ := perCall(block, func() { inj.NodeCycle(net, 0) })
			total += ns
			net.Drain(1 << 20)
		}
		p.add(r.name, "ns", lower, total/blocks)
	}
	ns, _ := perCall(300, func() { traffic.NewInjector(c, traffic.NewUniform(c), 0.02, p.cfg.seed) })
	p.add("traffic.new_injector_us", "us", lower, ns/1e3)
	return nil
}

func (p *probeSet) sim(context.Context) error {
	c := noc.DefaultConfig()
	pm := power.Default28nm()
	run := func(rate float64, warmup, measure int64) (sim.Result, error) {
		inj, err := traffic.NewInjector(c, traffic.NewUniform(c), rate, p.cfg.seed)
		if err != nil {
			return sim.Result{}, err
		}
		return sim.Run(sim.Params{Noc: c, Injector: inj, Policy: dvfs.NewNoDVFS(1e9), VF: volt.New(), Power: &pm,
			Warmup: warmup, Measure: measure})
	}
	for _, r := range []struct {
		name string
		rate float64
	}{{"sim.run_ns_per_cycle_low", 0.02}, {"sim.run_ns_per_cycle_high", 0.39}} {
		start := time.Now()
		res, err := run(r.rate, 8000, 20000) // the quick windows
		if err != nil {
			return err
		}
		p.add(r.name, "ns", lower, float64(time.Since(start).Nanoseconds())/float64(res.NetCycles))
	}
	var err error
	ns, allocs := perCall(200, func() { // a one-cycle window: all set-up, no stepping
		if _, e := run(0.02, 1, 1); e != nil {
			err = e
		}
	})
	p.add("sim.setup_us", "us", lower, ns/1e3)
	p.add("sim.setup_allocs", "count", lower, allocs)
	return err
}

func (p *probeSet) core(ctx context.Context) error {
	s := core.Scenario{Noc: noc.DefaultConfig(), Pattern: "uniform", Seed: p.cfg.seed, Quick: true, Workers: p.cfg.procs}
	jobs0, _ := exp.Stats()
	start := time.Now()
	cal, err := core.Calibrate(ctx, s)
	if err != nil {
		return err
	}
	p.add("core.calibrate_s", "s", lower, time.Since(start).Seconds())
	jobs1, _ := exp.Stats()
	p.add("core.calibrate_exp_jobs", "count", lower, float64(jobs1-jobs0))
	ns, _ := perCall(5, func() {
		if _, e := core.RunOne(ctx, s, core.RMSD, 0.04, cal); e != nil {
			err = e
		}
	})
	p.add("core.run_one_ms", "ms", lower, ns/1e6)
	return err
}

func (p *probeSet) exp(ctx context.Context) error {
	const jobs = 20000
	start := time.Now()
	_, err := exp.Map(ctx, p.cfg.procs, jobs, func(context.Context, int) (struct{}, error) { return struct{}{}, nil })
	p.add("exp.map_us_per_job", "us", lower, float64(time.Since(start).Microseconds())/jobs)
	return err
}

func (p *probeSet) nocsim(ctx context.Context) error {
	base, err := calibrated(ctx, p.cfg, 4, "uniform")
	if err != nil {
		return err
	}
	base.Quick = true
	g := nocsim.Grid{Base: base, Loads: nocsim.LoadGrid(0.08, 100), Policies: nocsim.AllPolicies()}
	s, err := g.Point(150)
	if err != nil {
		return err
	}
	r, err := nocsim.Run(ctx, s)
	if err != nil {
		return err
	}
	const n = 3000
	ns, _ := perCall(n, func() { err = s.Validate() })
	p.add("nocsim.validate_us", "us", lower, ns/1e3)
	ns, _ = perCall(n, func() { json.Marshal(s) })
	p.add("nocsim.scenario_json_us", "us", lower, ns/1e3)
	ns, _ = perCall(n, func() { json.Marshal(r) })
	p.add("nocsim.result_json_us", "us", lower, ns/1e3)
	i := 0
	ns, _ = perCall(n, func() { g.Point(i % g.Len()); i++ })
	p.add("nocsim.grid_point_us", "us", lower, ns/1e3)
	return err
}

// figures plans the three manifests of figures_quick, runs the baseline
// one, and times rendering, formatting and claim checking on its tables.
func (p *probeSet) figures(ctx context.Context) error {
	o := sweep.Options{Quick: true, Seed: p.cfg.seed, Workers: p.cfg.procs}
	var baseline *manifest.Manifest
	for _, fig := range []string{"baseline", "fig10", "pi"} {
		start := time.Now()
		m, err := sweep.Plan(ctx, fig, o)
		if err != nil {
			return err
		}
		p.add("sweep.plan_s."+fig, "s", lower, time.Since(start).Seconds())
		if fig == "baseline" {
			baseline = m
		}
	}
	ns, _ := perCall(200, func() { manifest.Sum(baseline) })
	p.add("manifest.sum_ms", "ms", lower, ns/1e6)
	i := 0
	ns, _ = perCall(3000, func() { baseline.Point(i % baseline.NumPoints()); i++ })
	p.add("manifest.point_us", "us", lower, ns/1e3)

	exp.ResetLeafPeak()
	start := time.Now()
	rs, _, err := manifest.Run(ctx, baseline, p.cfg.procs, nil, nil, 0)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	var busy time.Duration
	for _, r := range rs {
		busy += r.Meta.WallTime
	}
	_, peak := exp.LeafStats()
	slots := time.Duration(p.cfg.procs) * wall
	p.add("exp.leaf_peak", "count", lower, float64(peak))
	p.add("exp.parallel_efficiency", "ratio", higher, float64(busy)/float64(slots))
	p.add("manifest.run_overhead_ms_per_point", "ms", lower, float64(slots-busy)/1e6/float64(len(rs)))

	var tables []sweep.Table
	ns, _ = perCall(200, func() { tables, err = sweep.Render(baseline, rs) })
	if err != nil {
		return err
	}
	p.add("sweep.render_us", "us", lower, ns/1e3)
	ns, _ = perCall(200, func() {
		for i := range tables {
			tables[i].Format(io.Discard)
		}
	})
	p.add("sweep.format_us", "us", lower, ns/1e3)
	tables = append(tables, sweep.Fig5(o)...)
	claims := report.BaselineClaims()
	ns, _ = perCall(200, func() { report.Check(claims, tables) })
	p.add("report.check_us", "us", lower, ns/1e3)
	return nil
}

// fleet times the coordinator's lease and post, first called directly and
// then through the HTTP client, against the same journaling store and
// results mirror as fleet_drain, and then drains a small manifest.
func (p *probeSet) fleet(ctx context.Context) error {
	cfg := p.cfg
	cfg.tiny = false
	f, err := newFleetInst(ctx, cfg, 40) // 120 points
	if err != nil {
		return err
	}
	m, sum := f.m, f.sum
	_, sc, err := m.Point(0)
	if err != nil {
		return err
	}
	r, err := nocsim.Run(ctx, sc)
	if err != nil {
		return err
	}
	n := m.NumPoints()
	// leaseAndPost grants and completes every point through the two calls
	// given and returns their mean times.
	leaseAndPost := func(lease func() (queue.LeaseResponse, error), post func(queue.ResultRequest) error) (leaseNs, postNs float64, err error) {
		for i := 0; i < n; i++ {
			start := time.Now()
			ls, err := lease()
			leaseNs += float64(time.Since(start).Nanoseconds())
			if err != nil || ls.Status != queue.StatusLease {
				return 0, 0, fmt.Errorf("probe lease %d: status %q: %v", i, ls.Status, err)
			}
			start = time.Now()
			err = post(queue.ResultRequest{Worker: "probe", Name: ls.Name, Index: ls.Index, Sum: sum, Result: r})
			postNs += float64(time.Since(start).Nanoseconds())
			if err != nil {
				return 0, 0, err
			}
		}
		return leaseNs / float64(n), postNs / float64(n), nil
	}
	for _, overHTTP := range []bool{false, true} {
		dir, err := os.MkdirTemp(cfg.tmpRoot, "probe-queue-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		rig, err := newRig(dir, m)
		if err != nil {
			return err
		}
		defer rig.close()
		coord := rig.coord
		req := queue.LeaseRequest{Worker: "probe"}
		if !overHTTP {
			leaseNs, postNs, err := leaseAndPost(func() (queue.LeaseResponse, error) { return coord.Lease(req) }, coord.PostResult)
			if err != nil {
				return err
			}
			p.add("queue.lease_inproc_us", "us", lower, leaseNs/1e3)
			p.add("queue.post_inproc_us", "us", lower, postNs/1e3)
			continue
		}
		srv := httptest.NewServer(coord.Handler())
		defer srv.Close()
		client := &queue.Client{Base: srv.URL, HTTP: srv.Client()}
		leaseNs, postNs, err := leaseAndPost(
			func() (queue.LeaseResponse, error) { return client.Lease(ctx, req) },
			func(rr queue.ResultRequest) error { return client.PostResult(ctx, rr) })
		if err != nil {
			return err
		}
		p.add("queue.lease_http_us", "us", lower, leaseNs/1e3)
		p.add("queue.post_http_us", "us", lower, postNs/1e3)
		ns, _ := perCall(20, func() { _, err = client.Points(ctx, m.Name) })
		if err != nil {
			return err
		}
		p.add("queue.points_fetch_ms", "ms", lower, ns/1e6)
	}

	start := time.Now()
	res, err := f.pass(ctx, nil)
	if err != nil {
		return err
	}
	slots := time.Duration(cfg.procs) * time.Since(start)
	p.add("queue.overhead_ms_per_point", "ms", lower, float64(slots-res.pointWall)/1e6/float64(n))
	p.add("queue.leases_reissued", "count", lower, float64(f.reissued))
	return nil
}

// store replays a small store_replay instance under a tracer and reads
// each store call's time off its spans.
func (p *probeSet) store(ctx context.Context) error {
	cfg := p.cfg
	cfg.tiny = false
	inst, err := storeReplaySized(cfg, 40, 600) // 600 points, all appended in the pass
	if err != nil {
		return err
	}
	tr := newTracer()
	if _, err := inst.pass(ctx, tr); err != nil {
		return err
	}
	ms := func(name string) []float64 {
		ns := spanNs(tr.spans, name)
		sort.Float64s(ns)
		for i := range ns {
			ns[i] /= 1e6
		}
		return ns
	}
	appends, adds, opens := ms("Journal.Append"), ms("Store.AddPoint"), spanNs(tr.spans, "results.Open")
	p.add("manifest.journal_append_ms_p50", "ms", lower, quantile(appends, 0.5))
	p.add("manifest.journal_append_ms_p99", "ms", lower, quantile(appends, 0.99))
	p.add("manifest.load_points_ms", "ms", lower, mean(ms("DirStore.LoadPoints")))
	p.add("results.add_point_ms_p50", "ms", lower, quantile(adds, 0.5))
	p.add("results.add_point_ms_p99", "ms", lower, quantile(adds, 0.99))
	p.add("results.open_replay_ms", "ms", lower, opens[len(opens)-1]/1e6) // the second open replays
	p.add("results.select_ms", "ms", lower, mean(ms("Store.Select")))
	p.add("results.export_ms", "ms", lower, mean(ms("Store.ExportJournal")))
	p.add("results.compact_ms", "ms", lower, mean(ms("Store.Compact")))
	p.add("results.bytes_per_point", "B", lower, float64(inst.storeBytes)/float64(len(inst.results)))
	p.add("resultsrv.tables_cold_us", "us", lower, 1e3*mean(ms("Server.Tables")))

	// A store of its own for the render cache and the HTTP face.
	dir, err := os.MkdirTemp(cfg.tmpRoot, "probe-resultsrv-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rs, err := results.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return err
	}
	defer rs.Close()
	have := make(map[int]nocsim.Result, len(inst.results))
	for i, r := range inst.results {
		have[i] = r
	}
	if _, _, err := rs.ImportJournal(inst.m, have); err != nil {
		return err
	}
	server := &resultsrv.Server{Store: rs}
	if _, _, err := server.Tables(inst.m.Name); err != nil {
		return err
	}
	ns, _ := perCall(100_000, func() { server.Tables(inst.m.Name) })
	p.add("resultsrv.tables_hit_ns", "ns", lower, ns)
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ns, _ = perCall(50, func() {
		var resp *http.Response
		if resp, err = srv.Client().Get(srv.URL + "/api/tables/" + inst.m.Name); err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	p.add("resultsrv.http_tables_ms", "ms", lower, ns/1e6)
	return err
}

// peakRSSMB reads the process's resident-set high-water mark; where /proc
// does not say, the Go runtime's own total stands in.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if v, ok := strings.CutPrefix(string(line), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1e3
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}
