package sweep

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/volt"
	"repro/nocsim"
	"repro/nocsim/manifest"
)

// Options tunes the figure generators.
type Options struct {
	// Quick shrinks simulation windows and grids for smoke tests and
	// benchmarks.
	Quick bool
	// Points is the number of load-grid samples per curve (default 8,
	// or 4 in Quick mode).
	Points int
	// Seed makes all runs reproducible (default 1).
	Seed int64
	// Workers bounds the per-grid worker pools (0 = GOMAXPROCS, 1 =
	// serial). The process-wide number of concurrently executing
	// simulations is additionally capped by exp.SetLeafBudget, so nested
	// panels never multiply the bound. The tables are byte-identical for
	// every value; see package exp.
	Workers int
	// RefineBudget > 0 plans an adaptive sweep: at most this many extra
	// points refine the grid where its curves bend (manifest.Refine).
	RefineBudget int
}

func (o *Options) setDefaults() {
	if o.Points == 0 {
		if o.Quick {
			o.Points = 4
		} else {
			o.Points = 8
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// baseScenario returns the paper's baseline scenario: uniform traffic on
// the 5x5/8-VC/4-buffer/20-flit mesh.
func (o *Options) baseScenario() nocsim.Scenario {
	return nocsim.Scenario{
		Mesh:    nocsim.DefaultMesh(),
		Pattern: "uniform",
		Quick:   o.Quick,
		Seed:    o.Seed,
	}.Normalized()
}

// Figures lists the manifest-backed figure identifiers Plan accepts, in
// presentation order. Fig. 5 is analytic (no simulations) and stays
// outside the manifest machinery; "baseline" is the shared three-policy
// sweep that Figs. 2, 4, 6 and the summary table all present views of.
func Figures() []string {
	return []string{"baseline", "fig7", "fig8", "fig10", "pi",
		"period", "gains", "levels", "routing", "breakdown", "burst"}
}

// ResolveFigures expands a comma-separated -fig list into manifest
// figure names — the one vocabulary shared by cmd/figures and
// cmd/nocsimd, so the same selection works against either. It accepts
// the paper tokens (2, 4, 5, 6, 7, 8, 10, pi, summary, ablation),
// manifest names (baseline, fig7, ..., breakdown), and "all", returning
// the selected manifest figures in Figures() order plus whether the
// analytic Fig. 5 (which has no simulation points) was requested.
func ResolveFigures(list string) (figs []string, fig5 bool, err error) {
	want := map[string]bool{}
	for _, f := range strings.Split(list, ",") {
		if f = strings.TrimSpace(f); f != "" {
			want[f] = true
		}
	}
	all := want["all"]
	alias := map[string][]string{
		"2": {"baseline"}, "4": {"baseline"}, "6": {"baseline"}, "summary": {"baseline"},
		"7": {"fig7"}, "8": {"fig8"}, "10": {"fig10"},
		"ablation": {"period", "gains", "levels", "routing", "breakdown"},
		"5":        nil, // analytic: no manifest behind it
	}
	known := map[string]bool{}
	for _, f := range Figures() {
		known[f] = true
	}
	selected := map[string]bool{}
	for tok := range want {
		switch {
		case tok == "all":
		case known[tok]:
			selected[tok] = true
		default:
			expansion, ok := alias[tok]
			if !ok {
				return nil, false, fmt.Errorf("sweep: unknown figure %q (want one of %v, paper tokens 2,4,5,6,7,8,10,pi,summary,ablation, or 'all')", tok, Figures())
			}
			for _, f := range expansion {
				selected[f] = true
			}
		}
	}
	for _, f := range Figures() {
		if all || selected[f] {
			figs = append(figs, f)
		}
	}
	return figs, all || want["5"], nil
}

// Plan builds the resolved-grid manifest of one figure: it runs the
// calibrations the figure needs (fanning independent panels across the
// worker pool) and pins them into the panels' grids, so every point of
// the returned manifest is a self-contained, restartable job. Plan is
// the only part of a figure run that is not resumable, and it is not
// cheap: a calibration per panel at most, but a cold calibration is a
// saturation search of a dozen simulations, which the benchmark measures
// at about three quarters of a quick figure. nocsim computes each
// distinct calibration once per process, so panels and figures that
// calibrate the same fabric — the default one recurs in nearly every
// study — pay for its search once between them.
func Plan(ctx context.Context, fig string, o Options) (*manifest.Manifest, error) {
	o.setDefaults()
	var panels []manifest.Panel
	var err error
	switch fig {
	case "baseline":
		panels, err = o.planBaseline(ctx)
	case "fig7":
		panels, err = o.planFig7(ctx)
	case "fig8":
		panels, err = o.planFig8(ctx)
	case "fig10":
		panels, err = o.planFig10(ctx)
	case "pi":
		panels, err = o.planPI(ctx)
	case "period":
		panels, err = o.planPeriod(ctx)
	case "gains":
		panels, err = o.planGains(ctx)
	case "levels":
		panels, err = o.planLevels(ctx)
	case "routing":
		panels, err = o.planRouting(ctx)
	case "breakdown":
		panels, err = o.planBreakdown(ctx)
	case "burst":
		panels, err = o.planBurst(ctx)
	default:
		return nil, fmt.Errorf("sweep: unknown figure %q (want one of %v)", fig, Figures())
	}
	if err != nil {
		return nil, err
	}
	return &manifest.Manifest{Name: fig, Quick: o.Quick, Points: o.Points, Seed: o.Seed, RefineBudget: o.RefineBudget, Panels: panels}, nil
}

// Render assembles a completed manifest's results (in point order) into
// the figure's tables.
func Render(m *manifest.Manifest, results []nocsim.Result) ([]Table, error) {
	if n := m.NumPoints(); len(results) != n {
		return nil, fmt.Errorf("sweep: rendering %s: %d results for %d points", m.Name, len(results), n)
	}
	switch m.Name {
	case "baseline":
		var tables []Table
		tables = append(tables, renderFig2(m, results)...)
		tables = append(tables, renderFig4(m, results)...)
		tables = append(tables, renderFig6(m, results)...)
		tables = append(tables, renderSummary(m, results)...)
		return tables, nil
	case "fig7", "fig8", "fig10":
		return renderComparison(m, results), nil
	case "pi":
		return renderPI(m, results), nil
	case "period":
		return renderPeriod(m, results), nil
	case "gains":
		return renderGains(m, results), nil
	case "levels":
		return renderLevels(m, results), nil
	case "routing":
		return renderRouting(m, results), nil
	case "breakdown":
		return renderBreakdown(m, results), nil
	case "burst":
		return renderBurst(m, results), nil
	default:
		return nil, fmt.Errorf("sweep: unknown figure %q", m.Name)
	}
}

// resolveComparison resolves one three-policy grid: calibrate the base
// scenario, pin the calibration, and lay the load axis as the given
// fraction ladder of the measured saturation rate. The planning worker
// bound is applied for the calibration only and stripped from the stored
// grid, keeping manifests host-independent.
func (o *Options) resolveComparison(ctx context.Context, base nocsim.Scenario, policies []nocsim.PolicyKind, loads func(cal nocsim.Calibration) []float64) (nocsim.Grid, error) {
	base.Workers = o.Workers
	g, err := nocsim.Grid{Base: base, Policies: policies}.Resolve(ctx)
	if err != nil {
		return nocsim.Grid{}, err
	}
	g.Base.Workers = 0
	g.Loads = loads(*g.Base.Calibration)
	return g, nil
}

// planPanels builds the named panels concurrently: each panel's
// calibration is an independent sub-grid, and the panel jobs themselves
// never hold leaf-budget slots, so however many run at once the
// simulations below them stay capped.
func (o *Options) planPanels(ctx context.Context, labels []string, build func(ctx context.Context, i int) (nocsim.Grid, error)) ([]manifest.Panel, error) {
	grids, err := exp.Map(ctx, o.Workers, len(labels),
		func(ctx context.Context, i int) (nocsim.Grid, error) {
			g, err := build(ctx, i)
			if err != nil {
				return nocsim.Grid{}, fmt.Errorf("panel %s: %w", labels[i], err)
			}
			return g, nil
		})
	if err != nil {
		return nil, err
	}
	panels := make([]manifest.Panel, len(labels))
	for i := range labels {
		panels[i] = manifest.Panel{Label: labels[i], Grid: grids[i]}
	}
	return panels, nil
}

// nearSaturationLoads is the standard comparison axis: Points loads up
// to 90% of the measured saturation rate.
func (o *Options) nearSaturationLoads(cal nocsim.Calibration) []float64 {
	return nocsim.LoadGrid(0.9*cal.SaturationRate, o.Points)
}

func (o *Options) planBaseline(ctx context.Context) ([]manifest.Panel, error) {
	g, err := o.resolveComparison(ctx, o.baseScenario(), nocsim.AllPolicies(), o.nearSaturationLoads)
	if err != nil {
		return nil, err
	}
	return []manifest.Panel{{Label: "uniform", Grid: g}}, nil
}

func (o *Options) planFig7(ctx context.Context) ([]manifest.Panel, error) {
	patterns := nocsim.PaperPatterns()
	return o.planPanels(ctx, patterns, func(ctx context.Context, i int) (nocsim.Grid, error) {
		base := o.baseScenario()
		base.Pattern = patterns[i]
		return o.resolveComparison(ctx, base, nocsim.AllPolicies(), o.nearSaturationLoads)
	})
}

// fig8Variants is the sensitivity study's variant ladder: the number of
// VCs, buffers per VC, packet size, and mesh size, each around the
// baseline (Fig. 8).
func fig8Variants() (labels []string, mutate []func(*nocsim.Mesh)) {
	type variant struct {
		label string
		fn    func(*nocsim.Mesh)
	}
	all := []variant{
		{"vc2", func(m *nocsim.Mesh) { m.VCs = 2 }},
		{"vc4", func(m *nocsim.Mesh) { m.VCs = 4 }},
		{"vc8", func(m *nocsim.Mesh) { m.VCs = 8 }},
		{"buf4", func(m *nocsim.Mesh) { m.BufDepth = 4 }},
		{"buf8", func(m *nocsim.Mesh) { m.BufDepth = 8 }},
		{"buf16", func(m *nocsim.Mesh) { m.BufDepth = 16 }},
		{"pkt10", func(m *nocsim.Mesh) { m.PacketSize = 10 }},
		{"pkt15", func(m *nocsim.Mesh) { m.PacketSize = 15 }},
		{"pkt20", func(m *nocsim.Mesh) { m.PacketSize = 20 }},
		{"mesh4x4", func(m *nocsim.Mesh) { m.Width, m.Height = 4, 4 }},
		{"mesh5x5", func(m *nocsim.Mesh) { m.Width, m.Height = 5, 5 }},
		{"mesh8x8", func(m *nocsim.Mesh) { m.Width, m.Height = 8, 8 }},
	}
	for _, v := range all {
		labels = append(labels, v.label)
		mutate = append(mutate, v.fn)
	}
	return labels, mutate
}

func (o *Options) planFig8(ctx context.Context) ([]manifest.Panel, error) {
	labels, mutate := fig8Variants()
	return o.planPanels(ctx, labels, func(ctx context.Context, i int) (nocsim.Grid, error) {
		base := o.baseScenario()
		mutate[i](&base.Mesh)
		return o.resolveComparison(ctx, base, nocsim.AllPolicies(), o.nearSaturationLoads)
	})
}

func (o *Options) planFig10(ctx context.Context) ([]manifest.Panel, error) {
	apps := nocsim.Apps()
	labels := make([]string, len(apps))
	for i, a := range apps {
		labels[i] = a.Name
	}
	return o.planPanels(ctx, labels, func(ctx context.Context, i int) (nocsim.Grid, error) {
		base := nocsim.Scenario{
			App:   apps[i].Name,
			Quick: o.Quick,
			Seed:  o.Seed,
		}.Normalized() // sizes the mesh to the app's mapping
		return o.resolveComparison(ctx, base, nocsim.AllPolicies(),
			func(nocsim.Calibration) []float64 {
				return nocsim.LoadGrid(1.0, o.Points) // speeds up to 1.0 ≡ 75 f/s
			})
	})
}

func (o *Options) planPI(ctx context.Context) ([]manifest.Panel, error) {
	base := o.baseScenario()
	base.Transient = true
	// Pin the paper's period explicitly: the transient's sample cadence
	// is part of the figure, so quick mode must not shorten it.
	base.ControlPeriod = dvfs.ControlPeriodNodeCycles
	g, err := o.resolveComparison(ctx, base, []nocsim.PolicyKind{nocsim.DMSD},
		func(cal nocsim.Calibration) []float64 { return []float64{0.5 * cal.SaturationRate} })
	if err != nil {
		return nil, err
	}
	return []manifest.Panel{{Label: "pi", Grid: g}}, nil
}

// curves splits a comparison grid's results into one slice per policy,
// in the grid's policy order (policies are the outer grid dimension).
func curves(g nocsim.Grid, results []nocsim.Result) [][]nocsim.Result {
	np := max(1, len(g.Loads))
	out := make([][]nocsim.Result, max(1, len(g.Policies)))
	for i := range out {
		out[i] = results[i*np : (i+1)*np]
	}
	return out
}

func calNote(cal nocsim.Calibration) string {
	return fmt.Sprintf("calibration: saturation=%.3f λmax=%.3f target=%.1f ns",
		cal.SaturationRate, cal.LambdaMax, cal.TargetDelayNs)
}

// kneeNote annotates a delay table with the measured saturation knee of
// its No-DVFS curve (manifest.Knee). The fixed %.4f formatting is
// load-bearing: CI's adaptive smoke extracts it from a fixed-grid run and
// an adaptive run and asserts they agree within one coarse grid step.
func kneeNote(loads, delays []float64) string {
	load, _ := manifest.Knee(loads, delays)
	return fmt.Sprintf("saturation knee: rate %.4f (first load with nodvfs delay >= 2x the lowest-load delay)", load)
}

// renderFig2 renders Fig. 2: No-DVFS vs RMSD latency in cycles (a) and
// delay in ns (b) against injection rate, exposing the non-monotonic RMSD
// delay.
func renderFig2(m *manifest.Manifest, results []nocsim.Result) []Table {
	g := m.Panels[0].Grid
	cal := *g.Base.Calibration
	lat := Table{
		ID:      "fig2a",
		Title:   "NoC latency (network clock cycles) vs injection rate, uniform 5x5",
		Columns: []string{"rate", "nodvfs_latency_cycles", "rmsd_latency_cycles"},
		Notes:   []string{calNote(cal), "paper: RMSD latency constant for rate in [λmin, λmax]"},
	}
	del := Table{
		ID:      "fig2b",
		Title:   "NoC delay (ns) vs injection rate, uniform 5x5",
		Columns: []string{"rate", "nodvfs_delay_ns", "rmsd_delay_ns"},
		Notes: []string{calNote(cal),
			"paper: RMSD delay non-monotonic, peak near λmin ≈ " + fmt.Sprintf("%.3f", cal.LambdaMax/3)},
	}
	cs := curves(g, results)
	no, rm := cs[0], cs[1]
	noDelays := make([]float64, len(g.Loads))
	for i, load := range g.Loads {
		lat.AddRow(load, no[i].AvgLatencyCycles, rm[i].AvgLatencyCycles)
		del.AddRow(load, no[i].AvgDelayNs, rm[i].AvgDelayNs)
		noDelays[i] = no[i].AvgDelayNs
	}
	del.Notes = append(del.Notes, kneeNote(g.Loads, noDelays))
	return []Table{lat, del}
}

// renderFig4 renders Fig. 4: network clock frequency (a) and delay (b)
// for all three policies.
func renderFig4(m *manifest.Manifest, results []nocsim.Result) []Table {
	g := m.Panels[0].Grid
	cal := *g.Base.Calibration
	freq := Table{
		ID:      "fig4a",
		Title:   "Network clock frequency (GHz) vs injection rate",
		Columns: []string{"rate", "nodvfs_ghz", "rmsd_ghz", "dmsd_ghz"},
		Notes:   []string{calNote(cal), "paper: RMSD frequency ≤ DMSD frequency everywhere"},
	}
	del := Table{
		ID:      "fig4b",
		Title:   "Packet delay (ns) vs injection rate, three policies",
		Columns: []string{"rate", "nodvfs_delay_ns", "rmsd_delay_ns", "dmsd_delay_ns"},
		Notes:   []string{calNote(cal), "paper: DMSD flat at the target delay; RMSD up to ~1.9x above"},
	}
	cs := curves(g, results)
	no, rm, dm := cs[0], cs[1], cs[2]
	for i, load := range g.Loads {
		freq.AddRow(load, no[i].AvgFreqHz/1e9, rm[i].AvgFreqHz/1e9, dm[i].AvgFreqHz/1e9)
		del.AddRow(load, no[i].AvgDelayNs, rm[i].AvgDelayNs, dm[i].AvgDelayNs)
	}
	return []Table{freq, del}
}

// Fig5 renders the 28-nm FDSOI frequency-vs-voltage curve.
func Fig5(o Options) []Table {
	o.setDefaults()
	m := volt.New()
	t := Table{
		ID:      "fig5",
		Title:   "Network clock frequency vs Vdd, 28-nm FDSOI model",
		Columns: []string{"vdd_v", "freq_ghz"},
		Notes: []string{
			fmt.Sprintf("alpha-power fit: Vt=%.2f V, alpha=%.2f", m.Vt(), m.Alpha()),
			"anchors from the paper: 333 MHz @ 0.56 V, 1 GHz @ 0.90 V",
		},
	}
	points := o.Points * 2
	volts, freqs := m.Curve(volt.VMin, volt.VMax, points)
	for i := range volts {
		t.AddRow(volts[i], freqs[i]/1e9)
	}
	return []Table{t}
}

// renderFig6 renders total network power vs injection rate for the three
// policies, with the paper's annotated ratios recomputed at 0.2.
func renderFig6(m *manifest.Manifest, results []nocsim.Result) []Table {
	g := m.Panels[0].Grid
	cal := *g.Base.Calibration
	t := Table{
		ID:      "fig6",
		Title:   "Network power (mW) vs injection rate, three policies",
		Columns: []string{"rate", "nodvfs_mw", "rmsd_mw", "dmsd_mw"},
		Notes:   []string{calNote(cal), "paper at rate 0.2: No-DVFS/RMSD ≈ 2.2x, DMSD/RMSD ≈ 1.3x"},
	}
	cs := curves(g, results)
	no, rm, dm := cs[0], cs[1], cs[2]
	for i, load := range g.Loads {
		t.AddRow(load, no[i].AvgPowerMW, rm[i].AvgPowerMW, dm[i].AvgPowerMW)
	}
	if i := nearestIdx(g.Loads, 0.2); i >= 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("measured at rate %.2f: No-DVFS/RMSD = %.2fx, DMSD/RMSD = %.2fx",
			g.Loads[i],
			ratio(no[i].AvgPowerMW, rm[i].AvgPowerMW),
			ratio(dm[i].AvgPowerMW, rm[i].AvgPowerMW)))
	}
	return []Table{t}
}

// renderSummary recomputes the paper's headline numbers (Sec. I/VII): the
// power saving of each policy vs No-DVFS, the extra power of DMSD vs
// RMSD, and the delay ratio RMSD/DMSD, at the baseline grid's loads.
func renderSummary(m *manifest.Manifest, results []nocsim.Result) []Table {
	g := m.Panels[0].Grid
	t := Table{
		ID:    "summary",
		Title: "Headline power-delay trade-off (baseline uniform 5x5)",
		Columns: []string{"rate", "rmsd_power_saving_pct", "dmsd_power_saving_pct",
			"dmsd_extra_power_pct", "rmsd_delay_ratio"},
		Notes: []string{
			calNote(*g.Base.Calibration),
			"paper: RMSD saves 20-50% more power than DMSD; DMSD cuts delay up to ~3x",
		},
	}
	cs := curves(g, results)
	no, rm, dm := cs[0], cs[1], cs[2]
	for i, load := range g.Loads {
		pn, pr, pd := no[i].AvgPowerMW, rm[i].AvgPowerMW, dm[i].AvgPowerMW
		t.AddRow(load,
			100*(1-pr/pn),
			100*(1-pd/pn),
			100*(pd/pr-1),
			ratio(rm[i].AvgDelayNs, dm[i].AvgDelayNs))
	}
	return []Table{t}
}

// renderComparison renders a comparison figure, one delay table and one
// power table per panel: fig7's four synthetic patterns (tornado,
// bit-complement, transpose, neighbor) against injection rate, fig8's
// sensitivity ladder (VCs, buffers per VC, packet size, mesh size, under
// uniform traffic), and fig10's multimedia panels against application
// speed (the H.264 encoder on 4x4, the VCE on 5x5).
func renderComparison(m *manifest.Manifest, results []nocsim.Result) []Table {
	off := m.Offsets()
	var tables []Table
	for pi, panel := range m.Panels {
		ts := comparisonTables(m.Name, panel.Label, panel.Grid, results[off[pi]:off[pi+1]])
		if m.Name == "fig10" {
			for i := range ts {
				ts[i].Columns[0] = "speed"
				ts[i].Notes = append(ts[i].Notes, "speed 1.0 ≡ 75 frames/s in the paper's normalization")
			}
		}
		tables = append(tables, ts...)
	}
	return tables
}

// comparisonTables converts one three-policy panel into a delay table and
// a power table, with the paper-style ratio annotations computed mid-grid.
func comparisonTables(figID, label string, g nocsim.Grid, results []nocsim.Result) []Table {
	cal := *g.Base.Calibration
	del := Table{
		ID:      figID + "_" + label + "_delay",
		Title:   fmt.Sprintf("Packet delay (ns) vs load, %s", label),
		Columns: []string{"rate", "nodvfs_delay_ns", "rmsd_delay_ns", "dmsd_delay_ns"},
		Notes:   []string{calNote(cal)},
	}
	pow := Table{
		ID:      figID + "_" + label + "_power",
		Title:   fmt.Sprintf("Network power (mW) vs load, %s", label),
		Columns: []string{"rate", "nodvfs_mw", "rmsd_mw", "dmsd_mw"},
		Notes:   []string{calNote(cal)},
	}
	cs := curves(g, results)
	no, rm, dm := cs[0], cs[1], cs[2]
	noDelays := make([]float64, len(g.Loads))
	for i, load := range g.Loads {
		del.AddRow(load, no[i].AvgDelayNs, rm[i].AvgDelayNs, dm[i].AvgDelayNs)
		pow.AddRow(load, no[i].AvgPowerMW, rm[i].AvgPowerMW, dm[i].AvgPowerMW)
		noDelays[i] = no[i].AvgDelayNs
	}
	del.Notes = append(del.Notes, kneeNote(g.Loads, noDelays))
	if mid := len(g.Loads) / 2; mid < len(g.Loads) {
		del.Notes = append(del.Notes, fmt.Sprintf("delay ratio RMSD/DMSD at load %.3g: %.2fx",
			g.Loads[mid], ratio(rm[mid].AvgDelayNs, dm[mid].AvgDelayNs)))
		pow.Notes = append(pow.Notes, fmt.Sprintf("power ratios at load %.3g: No-DVFS/RMSD %.2fx, DMSD/RMSD %.2fx",
			g.Loads[mid],
			ratio(no[mid].AvgPowerMW, rm[mid].AvgPowerMW),
			ratio(dm[mid].AvgPowerMW, rm[mid].AvgPowerMW)))
	}
	return []Table{del, pow}
}

// burstSpecs parameterize the beyond-paper arrival-process panels: the
// same mean load redistributed into geometric (MMPP) and heavy-tailed
// (Pareto) burst trains.
var burstSpecs = map[string]*nocsim.SourceSpec{
	"poisson": nil,
	"mmpp":    {Kind: nocsim.SourceMMPP, BurstRatio: 4, BurstLen: 64},
	"pareto":  {Kind: nocsim.SourcePareto, BurstRatio: 4, BurstLen: 64, ParetoAlpha: 1.5},
}

// planBurst builds the beyond-paper workload study: the baseline
// three-policy comparison repeated under Poisson, MMPP and Pareto on-off
// arrivals. All panels deliberately share the Poisson panel's calibration
// and load axis — the question the figure answers is how the same
// calibrated controllers fare when the same offered load arrives in
// bursts, so operating points must not move between panels.
func (o *Options) planBurst(ctx context.Context) ([]manifest.Panel, error) {
	g, err := o.resolveComparison(ctx, o.baseScenario(), nocsim.AllPolicies(), o.nearSaturationLoads)
	if err != nil {
		return nil, err
	}
	labels := []string{"poisson", "mmpp", "pareto"}
	panels := make([]manifest.Panel, len(labels))
	for i, label := range labels {
		pg := g
		pg.Base.Source = burstSpecs[label]
		panels[i] = manifest.Panel{Label: label, Grid: pg}
	}
	return panels, nil
}

// renderBurst renders the beyond-paper arrival-process panels: delay and
// power under Poisson, MMPP and Pareto on-off arrivals, plus the direct
// MMPP-vs-Poisson delay comparison EXPERIMENTS.md embeds.
func renderBurst(m *manifest.Manifest, results []nocsim.Result) []Table {
	off := m.Offsets()
	var tables []Table
	panelRes := make([][]nocsim.Result, len(m.Panels))
	for pi, panel := range m.Panels {
		panelRes[pi] = results[off[pi]:off[pi+1]]
		tables = append(tables, comparisonTables(m.Name, panel.Label, panel.Grid, panelRes[pi])...)
	}
	g := m.Panels[0].Grid
	cmp := Table{
		ID:    "burst_compare",
		Title: "Packet delay (ns): Poisson vs MMPP arrivals, same loads and calibration",
		Columns: []string{"rate", "poisson_nodvfs_delay_ns", "mmpp_nodvfs_delay_ns",
			"poisson_rmsd_delay_ns", "mmpp_rmsd_delay_ns",
			"poisson_dmsd_delay_ns", "mmpp_dmsd_delay_ns"},
		Notes: []string{calNote(*g.Base.Calibration),
			"beyond-paper workload: MMPP burst ratio 4, mean ON burst 64 cycles — identical mean load, burstier arrivals"},
	}
	pc := curves(g, panelRes[0])
	mc := curves(m.Panels[1].Grid, panelRes[1])
	for i, load := range g.Loads {
		cmp.AddRow(load,
			pc[0][i].AvgDelayNs, mc[0][i].AvgDelayNs,
			pc[1][i].AvgDelayNs, mc[1][i].AvgDelayNs,
			pc[2][i].AvgDelayNs, mc[2][i].AvgDelayNs)
	}
	tables = append(tables, cmp)
	return tables
}

// renderPI renders the DMSD transient: the frequency and window-delay
// trace of the PI loop from cold start (FMax) at a fixed load, supporting
// the paper's stability and control-period claims (Sec. IV).
func renderPI(m *manifest.Manifest, results []nocsim.Result) []Table {
	g := m.Panels[0].Grid
	res := results[0]
	t := Table{
		ID:      "pi_step",
		Title:   "DMSD PI transient from cold start (load = 0.5 x saturation)",
		Columns: []string{"time_us", "freq_ghz", "window_delay_ns"},
		Notes: []string{calNote(*g.Base.Calibration),
			fmt.Sprintf("gains KI=%.4g KP=%.4g, control period %d node cycles",
				dvfs.DefaultKI, dvfs.DefaultKP, g.Base.ControlPeriod)},
	}
	for _, sm := range res.Trace {
		t.AddRow(sm.TimeNs/1e3, sm.FreqHz/1e9, sm.DelayNs)
	}
	return []Table{t}
}

// nearestIdx returns the index of the load closest to x.
func nearestIdx(loads []float64, x float64) int {
	best, bd := -1, math.Inf(1)
	for i, l := range loads {
		if d := math.Abs(l - x); d < bd {
			best, bd = i, d
		}
	}
	return best
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
