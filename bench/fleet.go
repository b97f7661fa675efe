package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/queue"
	"repro/internal/resultsrv"
	"repro/internal/sweep"
	"repro/nocsim"
	"repro/nocsim/manifest"
	"repro/nocsim/results"
)

// fleetPoll is the workers' back-off while every remaining point is leased
// to someone else. The default 500 ms would leave a worker asleep through
// the end of a pass that lasts little more than a second.
const fleetPoll = 2 * time.Millisecond

// leaseTTL is longer than any run of the benchmark.
const leaseTTL = 10 * time.Minute

// fleetInst drains one manifest of cheap points through a live coordinator:
// journaling DirStore, mirrored results store, HTTP on loopback, one lease
// loop and one connection per worker.
type fleetInst struct {
	cfg        config
	m          *manifest.Manifest
	sum        string
	wantTables []byte // in-process manifest.Run + sweep.Render of the same manifest
	reissued   int    // leases the last pass's coordinator re-issued
}

// fleetManifest hand-builds a resolved three-policy manifest of cheap
// points: a 4x4 mesh, quick windows, loads up to 0.08. It is named fig7
// because rendering is chosen by name and fig7's renderer takes any
// three-policy panel.
func fleetManifest(ctx context.Context, cfg config, loads int) (*manifest.Manifest, error) {
	base, err := calibrated(ctx, cfg, 4, "uniform")
	if err != nil {
		return nil, err
	}
	base.Quick = true
	return &manifest.Manifest{
		Name: "fig7", Quick: true, Points: loads, Seed: cfg.seed,
		Panels: []manifest.Panel{{Label: "uniform", Grid: nocsim.Grid{
			Base: base, Loads: nocsim.LoadGrid(0.08, loads), Policies: nocsim.AllPolicies(),
		}}},
	}, nil
}

func formatTables(m *manifest.Manifest, rs []nocsim.Result) ([]byte, error) {
	tables, err := sweep.Render(m, rs)
	if err != nil {
		return nil, err
	}
	return resultsrv.FormatTables(tables)
}

func fleetDrain(ctx context.Context, cfg config) (instance, error) {
	loads := 100
	if cfg.tiny {
		loads = 4
	}
	return newFleetInst(ctx, cfg, loads)
}

// newFleetInst builds the manifest and the reference every pass is held
// against: the tables of an in-process run of the same manifest.
func newFleetInst(ctx context.Context, cfg config, loads int) (*fleetInst, error) {
	m, err := fleetManifest(ctx, cfg, loads)
	if err != nil {
		return nil, err
	}
	f := &fleetInst{cfg: cfg, m: m}
	if f.sum, err = manifest.Sum(m); err != nil {
		return nil, err
	}
	ref, _, err := manifest.Run(ctx, m, cfg.procs, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	if f.wantTables, err = formatTables(m, ref); err != nil {
		return nil, err
	}
	return f, nil
}

// rig is a coordinator wired as fleet_drain runs it: a journaling DirStore
// and a mirrored results store, both fresh in dir, serving manifest m.
type rig struct {
	store   *manifest.DirStore
	results *results.Store
	coord   *queue.Coordinator
}

func newRig(dir string, m *manifest.Manifest) (*rig, error) {
	store, err := manifest.NewDirStore(filepath.Join(dir, "manifests"))
	if err != nil {
		return nil, err
	}
	// The manifest is saved before Add: saving later would truncate the
	// journal the coordinator writes.
	if err := store.SaveManifest(m); err != nil {
		return nil, err
	}
	rs, err := results.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return nil, err
	}
	// Leases never expire within a run: the adaptive TTL would settle at its
	// 2 s floor for points this cheap, and a shared host that stalls the
	// process for longer than that would get a point re-issued — a failed
	// operation caused by the machine, not by the code under test.
	coord := queue.New(queue.Config{Store: store, Results: rs, LeaseTTL: leaseTTL, TTLFloor: leaseTTL, TTLCeil: leaseTTL})
	if err := coord.Add(m, nil); err != nil {
		rs.Close()
		return nil, err
	}
	return &rig{store, rs, coord}, nil
}

// close releases the journal and the store; closing either twice is
// harmless, so passes that already closed them on the success path may
// still defer it.
func (r *rig) close() {
	r.coord.Close()
	r.results.Close()
}

// counter reads one unlabelled series from Prometheus text.
func counter(text []byte, name string) (float64, error) {
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("series %s not in /metrics", name)
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

// leaseLoop is the traced stand-in for queue.Worker's loop: the same four
// calls per point, each under a span that carries the point's sum/index.
func leaseLoop(ctx context.Context, c *queue.Client, id string, tr *tracer, parent int) error {
	var m *manifest.Manifest
	for {
		sp := tr.start("Client.Lease", "queue", "", parent)
		ls, err := c.Lease(ctx, queue.LeaseRequest{Worker: id})
		tr.end(sp)
		if err != nil {
			return err
		}
		switch ls.Status {
		case queue.StatusDone:
			return nil
		case queue.StatusWait:
			select {
			case <-time.After(fleetPoll):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		pid := fmt.Sprintf("%s/%d", ls.Sum, ls.Index)
		tr.tag(sp, pid)
		if m == nil {
			sp = tr.start("Client.Manifest", "queue", ls.Sum, parent)
			m, err = c.Manifest(ctx, ls.Name)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		sp = tr.start("Manifest.Point", "manifest", pid, parent)
		_, sc, err := m.Point(ls.Index)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start("nocsim.Run", "nocsim", pid, parent)
		r, err := nocsim.Run(ctx, sc)
		tr.end(sp)
		if err != nil {
			return err
		}
		r.Meta.PointIndex = ls.Index
		sp = tr.start("Client.PostResultRetry", "queue", pid, parent)
		err = c.PostResultRetry(ctx, queue.ResultRequest{Worker: id, Name: ls.Name, Index: ls.Index, Sum: ls.Sum, Result: r}, 0)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
}

func (f *fleetInst) pass(ctx context.Context, tr *tracer) (res passResult, err error) {
	n := f.m.NumPoints()
	dir, err := os.MkdirTemp(f.cfg.tmpRoot, "fleet-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	root := tr.start("pass", "bench", "", -1)
	defer tr.end(root)

	rig, err := newRig(dir, f.m)
	if err != nil {
		return res, err
	}
	defer rig.close()
	rig.coord.Seal()
	srv := httptest.NewServer(rig.coord.Handler())
	client := &queue.Client{Base: srv.URL, HTTP: srv.Client()}

	drain := tr.start("drain", "bench", f.sum, root)
	errs := make([]error, f.cfg.procs)
	var wg sync.WaitGroup
	for w := 0; w < f.cfg.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("bench-%d", w)
			if tr != nil {
				errs[w] = leaseLoop(ctx, client, id, tr, drain)
				return
			}
			errs[w] = (&queue.Worker{Client: client, ID: id, Workers: 1, Poll: fleetPoll}).Run(ctx)
		}()
	}
	wg.Wait()
	tr.end(drain)
	res.attempted = 2 * n // one lease and one post per point
	for _, e := range errs {
		if e != nil {
			err = e
		}
	}
	var text []byte
	var have map[int]nocsim.Result
	if err == nil {
		text, err = client.Metrics(ctx)
	}
	if err == nil {
		sp := tr.start("Client.Points", "queue", f.sum, root)
		have, err = client.Points(ctx, f.m.Name)
		tr.end(sp)
	}
	srv.Close()
	if cerr := rig.coord.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}

	// Leases re-issued, posts refused and mirror writes lost are all
	// failures here: nothing in this closed loop should cause one.
	res.attempted += 2
	for _, name := range []string{"nocsim_leases_reissued_total", "nocsim_posts_rejected_stale_total", "nocsim_results_store_errors_total"} {
		v, err := counter(text, name)
		if err != nil {
			return res, err
		}
		res.failed += int(v)
		if name == "nocsim_leases_reissued_total" {
			f.reissued = int(v)
		}
	}
	d := newDigest()
	for i := 0; i < n; i++ {
		r, ok := have[i]
		if !ok {
			res.failed++
			continue
		}
		res.points++
		res.netCycles += r.NetCycles
		res.packets += r.Packets
		res.pointWall += r.Meta.WallTime
		d.metrics(r.Metrics)
	}
	res.attempted++
	if lines, err := countLines(rig.store.PointsPath(f.m.Name)); err != nil {
		return res, err
	} else if lines != n { // exactly one journal line per point
		res.failed++
	}

	server := &resultsrv.Server{Store: rig.results}
	var got []byte
	for _, wantHit := range []bool{false, true} {
		sp := tr.start("Server.Tables", "resultsrv", f.sum, root)
		tables, hit, err := server.Tables(f.m.Name)
		tr.end(sp)
		res.attempted++
		if err != nil {
			return res, err
		}
		if got, err = resultsrv.FormatTables(tables); err != nil {
			return res, err
		}
		if hit != wantHit || !bytes.Equal(got, f.wantTables) {
			res.failed++
		}
	}
	d.bytes(got)
	res.digest = d.sum()
	return res, rig.results.Close()
}
