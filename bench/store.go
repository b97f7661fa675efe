package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/resultsrv"
	"repro/nocsim"
	"repro/nocsim/manifest"
	"repro/nocsim/results"
)

// storeInst replays precomputed results through both durable stores and
// reads them back: no simulation runs, so every second is the store
// layer's own. Most of the points are already in the stores when a pass
// starts (copied in from templates built in set-up); the pass appends the
// rest, one fsync per append and store, and then reads everything back.
// Appending all 3000 in the pass makes it 6000 fsyncs and little else, and
// on a shared disk their latency swings 3x between one run and the next.
type storeInst struct {
	cfg     config
	m       *manifest.Manifest
	sum     string
	results []nocsim.Result
	queries []results.Query
	hits    []int // points each query must return
	// journalTmpl and storeTmpl are the two files with every point but the
	// last fresh ones in them.
	fresh       int
	journalTmpl []byte
	storeTmpl   []byte
	// storeBytes is the results store's file size after the last pass's
	// appends, for the bytes-per-point probe.
	storeBytes int64
}

// storeReplay builds a five-panel, three-policy manifest and one synthetic
// result per point. The numbers are drawn from the seed, not simulated:
// the stores only ever see them as JSON.
func storeReplay(_ context.Context, cfg config) (instance, error) {
	loads := 200
	if cfg.tiny {
		loads = 4
	}
	return storeReplaySized(cfg, loads, max(1, 15*loads/50))
}

// storeReplaySized builds an instance of 15*loads points of which each
// pass appends the last fresh.
func storeReplaySized(cfg config, loads, fresh int) (*storeInst, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &storeInst{cfg: cfg, fresh: fresh, m: &manifest.Manifest{Name: "fig7", Points: loads, Seed: cfg.seed}}
	for _, pattern := range append([]string{"uniform"}, nocsim.PaperPatterns()...) {
		sat := 0.3 + 0.2*rng.Float64()
		base := nocsim.Scenario{Pattern: pattern, Seed: cfg.seed}.Normalized()
		base.Calibration = &nocsim.Calibration{SaturationRate: sat, LambdaMax: 0.9 * sat, TargetDelayNs: 100 + 100*rng.Float64()}
		s.m.Panels = append(s.m.Panels, manifest.Panel{Label: pattern, Grid: nocsim.Grid{
			Base: base, Loads: nocsim.LoadGrid(0.9*sat, loads), Policies: nocsim.AllPolicies(),
		}})
	}
	var err error
	if s.sum, err = manifest.Sum(s.m); err != nil {
		return nil, err
	}
	s.queries = []results.Query{
		{Plan: "fig7", Policy: string(nocsim.DMSD)},
		{Pattern: "tornado", MinLoad: 0.1, MaxLoad: 0.25},
		{Mesh: "5x5", Panel: "uniform", Limit: loads},
	}
	s.hits = make([]int, len(s.queries))
	for i := 0; i < s.m.NumPoints(); i++ {
		_, sc, err := s.m.Point(i)
		if err != nil {
			return nil, err
		}
		freq := 0.333e9 + 0.667e9*rng.Float64()
		lat := 30 + 200*rng.Float64()
		mw := 20 + 80*rng.Float64()
		s.results = append(s.results, nocsim.Result{
			Scenario: sc,
			Metrics: nocsim.Metrics{
				AvgLatencyCycles: lat, AvgDelayNs: lat / freq * 1e9, P99DelayNs: 3 * lat / freq * 1e9,
				Packets: 1000 + rng.Int63n(50000), OfferedRate: sc.Load, Throughput: sc.Load * (0.98 + 0.02*rng.Float64()),
				AvgFreqHz: freq, AvgVolts: 0.6 + 0.4*rng.Float64(),
				AvgPowerMW: mw, SwitchingMW: 0.5 * mw, ClockMW: 0.3 * mw, LeakageMW: 0.2 * mw,
				ElapsedNs: 6e4, NetCycles: 30000 + rng.Int63n(60000),
			},
			Meta: nocsim.RunMeta{Seed: sc.Seed, WallTime: time.Duration(1e6 + rng.Int63n(1e8)), PointIndex: i},
		})
		if sc.Policy == nocsim.DMSD {
			s.hits[0]++
		}
		if sc.Pattern == "tornado" && sc.Load >= 0.1 && sc.Load <= 0.25 {
			s.hits[1]++
		}
	}
	s.hits[2] = loads
	return s, s.buildTemplates()
}

// buildTemplates writes the points a pass finds already stored: the journal
// as the Record lines Journal.Append would have written, the results store
// through its own import.
func (s *storeInst) buildTemplates() error {
	old := make(map[int]nocsim.Result)
	var journal bytes.Buffer
	for i, r := range s.results[:len(s.results)-s.fresh] {
		old[i] = r
		line, err := json.Marshal(manifest.Record{Index: i, Result: r})
		if err != nil {
			return err
		}
		journal.Write(append(line, '\n'))
	}
	s.journalTmpl = journal.Bytes()
	dir, err := os.MkdirTemp(s.cfg.tmpRoot, "store-template-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "results.jsonl")
	rs, err := results.Open(path)
	if err != nil {
		return err
	}
	defer rs.Close()
	if _, _, err := rs.ImportJournal(s.m, old); err != nil {
		return err
	}
	if err := rs.Close(); err != nil {
		return err
	}
	s.storeTmpl, err = os.ReadFile(path)
	return err
}

func (s *storeInst) pass(ctx context.Context, tr *tracer) (res passResult, err error) {
	dir, err := os.MkdirTemp(s.cfg.tmpRoot, "store-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	root := tr.start("pass", "bench", "", -1)
	defer tr.end(root)
	// call runs one store operation under a span and counts it.
	call := func(name, layer string, fn func() error) error {
		sp := tr.start(name, layer, s.sum, root)
		err := fn()
		tr.end(sp)
		res.attempted++
		return err
	}
	check := func(ok bool) {
		if !ok {
			res.failed++
		}
	}

	// Write side: both stores take the fresh points, one fsync each, on top
	// of what the templates hold.
	var st *manifest.DirStore
	var j *manifest.Journal
	var rs *results.Store
	path := filepath.Join(dir, "results.jsonl")
	if err = call("DirStore.SaveManifest", "manifest", func() (err error) {
		if st, err = manifest.NewDirStore(filepath.Join(dir, "manifests")); err != nil {
			return err
		}
		return st.SaveManifest(s.m)
	}); err != nil {
		return res, err
	}
	if err = os.WriteFile(st.PointsPath(s.m.Name), s.journalTmpl, 0o644); err != nil {
		return res, err
	}
	if err = os.WriteFile(path, s.storeTmpl, 0o644); err != nil {
		return res, err
	}
	if err = call("DirStore.Journal", "manifest", func() (err error) { j, err = st.Journal(s.m.Name); return }); err != nil {
		return res, err
	}
	defer j.Close()
	if err = call("results.Open", "results", func() (err error) { rs, err = results.Open(path); return }); err != nil {
		return res, err
	}
	defer func() { rs.Close() }()
	if err = call("Store.AddManifest", "results", func() error { _, err := rs.AddManifest(s.m); return err }); err != nil {
		return res, err
	}
	for i := len(s.results) - s.fresh; i < len(s.results); i++ {
		r := s.results[i]
		if err = ctx.Err(); err != nil {
			return res, err
		}
		if err = call("Journal.Append", "manifest", func() error { return j.Append(i, r) }); err != nil {
			return res, err
		}
		if err = call("Store.AddPoint", "results", func() error { return rs.AddPoint(s.sum, i, r) }); err != nil {
			return res, err
		}
	}
	res.points = len(s.results)
	if err = call("Journal.Close", "manifest", j.Close); err != nil {
		return res, err
	}
	if err = call("Store.Close", "results", rs.Close); err != nil {
		return res, err
	}
	if info, err := os.Stat(path); err == nil {
		s.storeBytes = info.Size()
	}

	// Read side: reload the journal, replay the store, query, export,
	// compact and render.
	if err = call("DirStore.LoadPoints", "manifest", func() error {
		have, err := st.LoadPoints(s.m.Name)
		check(len(have) == len(s.results))
		return err
	}); err != nil {
		return res, err
	}
	if err = call("results.Open", "results", func() (err error) { rs, err = results.Open(path); return }); err != nil {
		return res, err
	}
	for qi, q := range s.queries {
		if err = call("Store.Select", "results", func() error {
			pts, err := rs.Select(q)
			check(len(pts) == s.hits[qi])
			return err
		}); err != nil {
			return res, err
		}
	}
	d := newDigest()
	var export bytes.Buffer
	if err = call("Store.ExportJournal", "results", func() error { return rs.ExportJournal(&export, s.sum) }); err != nil {
		return res, err
	}
	journal, err := os.ReadFile(st.PointsPath(s.m.Name))
	if err != nil {
		return res, err
	}
	check(bytes.Equal(export.Bytes(), journal)) // the store's way back out is byte-identical
	d.bytes(export.Bytes())
	if err = call("Store.Compact", "results", func() error {
		plans, points, err := rs.Compact()
		check(plans == 0 && points == 0)
		return err
	}); err != nil {
		return res, err
	}
	if err = call("Server.Tables", "resultsrv", func() error {
		tables, hit, err := (&resultsrv.Server{Store: rs}).Tables(s.m.Name)
		if err != nil {
			return err
		}
		check(!hit)
		text, err := resultsrv.FormatTables(tables)
		d.bytes(text)
		return err
	}); err != nil {
		return res, err
	}
	res.digest = d.sum()
	return res, rs.Close()
}
