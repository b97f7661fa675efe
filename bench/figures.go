package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/resultsrv"
	"repro/internal/sweep"
	"repro/nocsim"
	"repro/nocsim/manifest"
)

// figuresInst is the researcher's end to end, in process: plan each
// manifest (calibration), run it on the worker pool, render and format its
// tables, then check the paper's claims against them.
type figuresInst struct {
	figs   []string
	opts   sweep.Options
	claims []report.Claim
}

func figuresQuick(_ context.Context, cfg config) (instance, error) {
	f := &figuresInst{
		figs: []string{"baseline", "fig10", "pi"},
		opts: sweep.Options{Quick: true, Seed: cfg.seed, Workers: cfg.procs},
	}
	f.claims = report.BaselineClaims()
	for _, app := range nocsim.Apps() {
		f.claims = append(f.claims, report.AppClaims(app.Name)...)
	}
	if cfg.tiny {
		f.figs, f.opts.Points, f.claims = []string{"fig10"}, 2, nil
	}
	return f, nil
}

func (f *figuresInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var res passResult
	d := newDigest()
	root := tr.start("pass", "bench", "", -1)
	// Fig. 5 is analytic; the baseline claims read it beside the rest.
	tables := sweep.Fig5(f.opts)
	for _, fig := range f.figs {
		sp := tr.start("sweep.Plan", "sweep", fig, root)
		m, err := sweep.Plan(ctx, fig, f.opts)
		tr.end(sp)
		res.attempted++
		if err != nil {
			return res, err
		}
		sum, err := manifest.Sum(m)
		if err != nil {
			return res, err
		}
		sp = tr.start("manifest.Run", "manifest", sum, root)
		var onPoint func(int, nocsim.Result) error
		if tr != nil {
			onPoint = func(i int, r nocsim.Result) error {
				tr.add("nocsim.Run", "nocsim", fmt.Sprintf("%s/%d", sum, i), sp, time.Now(), r.Meta.WallTime)
				return nil
			}
		}
		results, _, err := manifest.Run(ctx, m, f.opts.Workers, nil, onPoint, 0)
		tr.end(sp)
		res.attempted += m.NumPoints()
		if err != nil {
			return res, err
		}
		for _, r := range results {
			res.points++
			res.netCycles += r.NetCycles
			res.packets += r.Packets
			res.pointWall += r.Meta.WallTime
			d.metrics(r.Metrics)
		}
		sp = tr.start("sweep.Render", "sweep", sum, root)
		ts, err := sweep.Render(m, results)
		tr.end(sp)
		res.attempted++
		if err != nil {
			return res, err
		}
		sp = tr.start("Table.Format", "sweep", sum, root)
		text, err := resultsrv.FormatTables(ts) // Table.Format of each, concatenated
		tr.end(sp)
		if err != nil {
			return res, err
		}
		d.bytes(text)
		tables = append(tables, ts...)
	}
	sp := tr.start("report.Check", "report", "", root)
	for _, v := range report.Check(f.claims, tables) {
		if !v.Pass {
			res.claimsFailed++
		}
	}
	tr.end(sp)
	tr.end(root)
	res.digest = d.sum()
	return res, nil
}
