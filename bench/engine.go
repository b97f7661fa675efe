package main

import (
	"context"
	"strconv"

	"repro/internal/exp"
	"repro/nocsim"
)

// engineInst is a list of self-contained scenarios run one after another
// with nocsim.Run: the two engine workloads differ only in the list.
type engineInst struct{ points []nocsim.Scenario }

func (e *engineInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var res passResult
	d := newDigest()
	root := tr.start("pass", "bench", "", -1)
	for i, s := range e.points {
		sp := tr.start("nocsim.Run", "nocsim", strconv.Itoa(i), root)
		r, err := nocsim.Run(ctx, s)
		tr.end(sp)
		res.attempted++
		if err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			res.failed++
			continue
		}
		res.points++
		res.netCycles += r.NetCycles
		res.packets += r.Packets
		res.pointWall += r.Meta.WallTime
		d.metrics(r.Metrics)
	}
	tr.end(root)
	res.digest = d.sum()
	return res, nil
}

// calibrated returns the scenario's mesh and pattern with a calibration
// pinned. The saturation search runs with quick windows whatever windows
// the points use: the pinned numbers only have to be plausible operating
// points, and set-up stays a second or two.
func calibrated(ctx context.Context, cfg config, width int, pattern string) (nocsim.Scenario, error) {
	s := nocsim.Scenario{Pattern: pattern, Seed: cfg.seed}
	s.Mesh.Width, s.Mesh.Height = width, width
	s = s.Normalized()
	if cfg.tiny { // the tests check plumbing, not calibration: pin a safe guess
		s.Calibration = &nocsim.Calibration{SaturationRate: 0.2, LambdaMax: 0.18, TargetDelayNs: 150}
		return s, nil
	}
	probe := s
	probe.Quick = true
	probe.Workers = cfg.procs
	cal, err := nocsim.Calibrate(ctx, probe)
	if err != nil {
		return nocsim.Scenario{}, err
	}
	s.Calibration = &cal
	return s, nil
}

// engineLowload: the paper's 5x5 mesh under uniform traffic at loads far
// below saturation, full windows, all three policies.
func engineLowload(ctx context.Context, cfg config) (instance, error) {
	width, loads := 5, []float64{0.01, 0.02, 0.04}
	if cfg.tiny {
		width, loads = 4, loads[:1]
	}
	base, err := calibrated(ctx, cfg, width, "uniform")
	if err != nil {
		return nil, err
	}
	base.Quick = cfg.tiny
	inst := &engineInst{}
	for _, pol := range nocsim.AllPolicies() {
		for _, load := range loads {
			s := base
			s.Policy, s.Load = pol, load
			s.Seed = exp.Seed(cfg.seed, len(inst.points))
			inst.points = append(inst.points, s)
		}
	}
	return inst, nil
}

// engineSaturated: 0.85 of the measured saturation rate on an 8x8 mesh
// under uniform traffic and on the 5x5 mesh under transpose. No-DVFS and
// RMSD measure the steady state over quick windows. DMSD runs as a
// transient capture, whose windows are fixed: near saturation its adaptive
// warm-up ends anywhere between 50k and 160k cycles depending on the seed,
// which would make the pass time say more about the seed than the code.
func engineSaturated(ctx context.Context, cfg config) (instance, error) {
	meshes := []struct {
		width   int
		pattern string
	}{{8, "uniform"}, {5, "transpose"}}
	if cfg.tiny {
		meshes = meshes[1:]
		meshes[0].width = 4
	}
	inst := &engineInst{}
	for _, m := range meshes {
		base, err := calibrated(ctx, cfg, m.width, m.pattern)
		if err != nil {
			return nil, err
		}
		base.Quick = true
		base.Load = 0.85 * base.Calibration.SaturationRate
		for _, pol := range nocsim.AllPolicies() {
			s := base
			s.Policy = pol
			s.Transient = pol == nocsim.DMSD && !cfg.tiny
			s.Seed = exp.Seed(cfg.seed, len(inst.points))
			inst.points = append(inst.points, s)
		}
	}
	return inst, nil
}
