package sweep

import (
	"context"
	"fmt"

	"repro/internal/dvfs"
	"repro/nocsim"
	"repro/nocsim/manifest"
)

// This file holds the ablation studies beyond the paper's figures,
// supporting claims the paper makes in prose:
//
//   - "period" (AblationControlPeriod) — Sec. IV claims 10 000 cycles
//     "are sufficient" as a control update period: sweep the period and
//     show the tracked delay is insensitive while overhead shrinks.
//   - "gains" (AblationGains) — Sec. IV: the published gains are "a good
//     compromise between stability and reactivity": sweep KI/KP around
//     them.
//   - "levels" (AblationDiscreteLevels) — footnote 2: results remain
//     valid when the controller picks from discrete frequency levels.
//   - "routing" (AblationRouting) — Sec. I claims insensitivity to
//     micro-architectural variations: swap the routing algorithm
//     (XY / YX / O1TURN).
//   - "breakdown" (PowerBreakdown) — decompose the policies' power into
//     switching, clock and leakage, explaining *where* the V²F savings
//     come from.
//
// Like the figures, each study is planned as nocsim grids — one panel
// per swept knob value, the knob carried in the panel's base scenario —
// so an ablation is the same restartable manifest-of-jobs as a figure.

// calibrateBase returns the baseline scenario and its calibration for the
// studies whose panels all share it. It is the calibration the baseline
// figure pins, so in a process that has already planned that figure (or
// another of these studies) nocsim answers from its memo and nothing is
// measured again.
func (o *Options) calibrateBase(ctx context.Context) (nocsim.Scenario, nocsim.Calibration, error) {
	base := o.baseScenario()
	base.Workers = o.Workers
	cal, err := nocsim.Calibrate(ctx, base)
	base.Workers = 0
	return base, cal, err
}

// singlePolicyGrid returns a one-load grid for the given policies with a
// pinned calibration.
func singlePolicyGrid(base nocsim.Scenario, cal nocsim.Calibration, load float64, policies ...nocsim.PolicyKind) nocsim.Grid {
	base.Calibration = &cal
	return nocsim.Grid{Base: base, Loads: []float64{load}, Policies: policies}
}

// ablationPeriods is the swept control-period ladder (node cycles).
func ablationPeriods(quick bool) []int64 {
	if quick {
		return []int64{2000, 10000, 50000}
	}
	return []int64{1000, 2000, 5000, 10000, 20000, 50000}
}

func (o *Options) planPeriod(ctx context.Context) ([]manifest.Panel, error) {
	base, cal, err := o.calibrateBase(ctx)
	if err != nil {
		return nil, err
	}
	rate := 0.5 * cal.SaturationRate
	var panels []manifest.Panel
	for _, period := range ablationPeriods(o.Quick) {
		b := base
		b.ControlPeriod = period
		panels = append(panels, manifest.Panel{
			Label: fmt.Sprintf("p%d", period),
			Grid:  singlePolicyGrid(b, cal, rate, nocsim.DMSD),
		})
	}
	return panels, nil
}

// renderPeriod renders the control-period ablation: the DMSD control
// update period is swept and the steady-state delay error and power
// reported at a fixed moderate load. The paper's claim holds when the
// tracked delay stays near the target across periods spanning two orders
// of magnitude.
func renderPeriod(m *manifest.Manifest, results []nocsim.Result) []Table {
	cal := *m.Panels[0].Grid.Base.Calibration
	t := Table{
		ID:      "abl_period",
		Title:   "DMSD steady state vs control update period (load = 0.5 x saturation)",
		Columns: []string{"period_node_cycles", "delay_ns", "delay_err_pct", "power_mw", "avg_freq_ghz"},
		Notes: []string{calNote(cal),
			"paper Sec. IV: 10 000 cycles at the highest frequency are sufficient"},
	}
	for i, panel := range m.Panels {
		res := results[i]
		errPct := 100 * (res.AvgDelayNs - cal.TargetDelayNs) / cal.TargetDelayNs
		t.AddRow(float64(panel.Grid.Base.ControlPeriod), res.AvgDelayNs, errPct, res.AvgPowerMW, res.AvgFreqHz/1e9)
	}
	return []Table{t}
}

// ablationGains is the swept PI-gain ladder around the published values.
func ablationGains(quick bool) []struct{ KI, KP float64 } {
	gains := []struct{ KI, KP float64 }{
		{0.005, 0.0025},
		{0.0125, 0.00625},
		{dvfs.DefaultKI, dvfs.DefaultKP},
		{0.05, 0.025},
		{0.1, 0.05},
	}
	if quick {
		return gains[1:4]
	}
	return gains
}

func (o *Options) planGains(ctx context.Context) ([]manifest.Panel, error) {
	base, cal, err := o.calibrateBase(ctx)
	if err != nil {
		return nil, err
	}
	rate := 0.5 * cal.SaturationRate
	var panels []manifest.Panel
	for _, g := range ablationGains(o.Quick) {
		b := base
		b.KI, b.KP = g.KI, g.KP
		panels = append(panels, manifest.Panel{
			Label: fmt.Sprintf("ki%g", g.KI),
			Grid:  singlePolicyGrid(b, cal, rate, nocsim.DMSD),
		})
	}
	return panels, nil
}

// renderGains renders the PI-gain ablation: the gains are swept around
// the published values at a fixed load, reporting settling behaviour
// (delay error) and the average frequency. Unstable gain choices show up
// as large residual errors.
func renderGains(m *manifest.Manifest, results []nocsim.Result) []Table {
	cal := *m.Panels[0].Grid.Base.Calibration
	t := Table{
		ID:      "abl_gains",
		Title:   "DMSD steady state vs PI gains (load = 0.5 x saturation)",
		Columns: []string{"ki", "kp", "delay_ns", "delay_err_pct", "power_mw"},
		Notes: []string{calNote(cal),
			fmt.Sprintf("paper gains: KI=%.4g KP=%.4g", dvfs.DefaultKI, dvfs.DefaultKP)},
	}
	for i, panel := range m.Panels {
		res := results[i]
		errPct := 100 * (res.AvgDelayNs - cal.TargetDelayNs) / cal.TargetDelayNs
		t.AddRow(panel.Grid.Base.KI, panel.Grid.Base.KP, res.AvgDelayNs, errPct, res.AvgPowerMW)
	}
	return []Table{t}
}

// ablationLevelCounts is the swept discrete-level ladder (0 means
// continuous actuation).
func ablationLevelCounts(quick bool) []int {
	if quick {
		return []int{0, 4}
	}
	return []int{0, 3, 5, 9}
}

func (o *Options) planLevels(ctx context.Context) ([]manifest.Panel, error) {
	base, cal, err := o.calibrateBase(ctx)
	if err != nil {
		return nil, err
	}
	rate := 0.5 * cal.SaturationRate
	var panels []manifest.Panel
	for _, n := range ablationLevelCounts(o.Quick) {
		b := base
		b.FreqLevels = n
		panels = append(panels, manifest.Panel{
			Label: fmt.Sprintf("l%d", n),
			Grid:  singlePolicyGrid(b, cal, rate, nocsim.RMSD, nocsim.DMSD),
		})
	}
	return panels, nil
}

// renderLevels renders the discrete-levels ablation: continuous
// actuation against discrete frequency tables of a few sizes for both
// policies (paper footnote 2: "the results remain valid in case of
// discrete values").
func renderLevels(m *manifest.Manifest, results []nocsim.Result) []Table {
	cal := *m.Panels[0].Grid.Base.Calibration
	t := Table{
		ID:      "abl_levels",
		Title:   "Policies with discrete frequency levels (load = 0.5 x saturation)",
		Columns: []string{"levels", "rmsd_delay_ns", "rmsd_power_mw", "dmsd_delay_ns", "dmsd_power_mw"},
		Notes:   []string{calNote(cal), "levels=0 means continuous actuation"},
	}
	off := m.Offsets()
	for pi, panel := range m.Panels {
		resR, resD := results[off[pi]], results[off[pi]+1] // policies: rmsd, dmsd
		t.AddRow(float64(panel.Grid.Base.FreqLevels),
			resR.AvgDelayNs, resR.AvgPowerMW, resD.AvgDelayNs, resD.AvgPowerMW)
	}
	return []Table{t}
}

// ablationRoutings lists the compared routing algorithms; the table
// encodes them by their ladder index.
func ablationRoutings() []nocsim.Routing {
	return []nocsim.Routing{nocsim.RoutingXY, nocsim.RoutingYX, nocsim.RoutingO1Turn}
}

func (o *Options) planRouting(ctx context.Context) ([]manifest.Panel, error) {
	routings := ablationRoutings()
	labels := make([]string, len(routings))
	for i, r := range routings {
		labels[i] = string(r)
	}
	return o.planPanels(ctx, labels, func(ctx context.Context, i int) (nocsim.Grid, error) {
		base := o.baseScenario()
		base.Mesh.Routing = routings[i]
		// Each routing calibrates itself: its saturation point is part of
		// the study.
		return o.resolveComparison(ctx, base, nocsim.AllPolicies(),
			func(cal nocsim.Calibration) []float64 { return []float64{0.5 * cal.SaturationRate} })
	})
}

// renderRouting renders the routing ablation: the three-policy
// comparison repeated under XY, YX and O1TURN routing at half saturation,
// checking the conclusions do not hang on the routing algorithm.
func renderRouting(m *manifest.Manifest, results []nocsim.Result) []Table {
	t := Table{
		ID:      "abl_routing",
		Title:   "Three policies under different routing algorithms (load = 0.5 x saturation)",
		Columns: []string{"routing", "sat", "nodvfs_mw", "rmsd_mw", "rmsd_delay_ns", "dmsd_mw", "dmsd_delay_ns"},
		Notes:   []string{"routing encoded as 0=xy 1=yx 2=o1turn"},
	}
	off := m.Offsets()
	for pi, panel := range m.Panels {
		cal := *panel.Grid.Base.Calibration
		rs := results[off[pi]:off[pi+1]] // policies: nodvfs, rmsd, dmsd
		n, rm, dm := rs[0], rs[1], rs[2]
		t.AddRow(float64(pi), cal.SaturationRate, n.AvgPowerMW,
			rm.AvgPowerMW, rm.AvgDelayNs, dm.AvgPowerMW, dm.AvgDelayNs)
	}
	return []Table{t}
}

func (o *Options) planBreakdown(ctx context.Context) ([]manifest.Panel, error) {
	base, cal, err := o.calibrateBase(ctx)
	if err != nil {
		return nil, err
	}
	rate := 0.5 * cal.SaturationRate
	return []manifest.Panel{{
		Label: "breakdown",
		Grid:  singlePolicyGrid(base, cal, rate, nocsim.AllPolicies()...),
	}}, nil
}

// renderBreakdown decomposes each policy's power at a moderate load into
// switching, clock-tree and leakage shares, showing where the V²F scaling
// bites.
func renderBreakdown(m *manifest.Manifest, results []nocsim.Result) []Table {
	cal := *m.Panels[0].Grid.Base.Calibration
	t := Table{
		ID:      "power_breakdown",
		Title:   "Power breakdown by component (load = 0.5 x saturation)",
		Columns: []string{"policy", "total_mw", "switching_mw", "clock_mw", "leakage_mw"},
		Notes:   []string{calNote(cal), "policy encoded as 0=nodvfs 1=rmsd 2=dmsd"},
	}
	for i, res := range results {
		t.AddRow(float64(i), res.AvgPowerMW, res.SwitchingMW, res.ClockMW, res.LeakageMW)
	}
	return []Table{t}
}
