package repro_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/report"
	"repro/internal/sweep"
	"repro/nocsim/manifest"
)

// kneeFromTables extracts the saturation knee of the No-DVFS delay curve
// from a rendered fig2b table, plus the table's load span.
func kneeFromTables(t *testing.T, tables []sweep.Table) (knee, maxLoad float64) {
	t.Helper()
	for i := range tables {
		if tables[i].ID != "fig2b" {
			continue
		}
		loads := column(t, tables[i], "rate")
		knee, _ := manifest.Knee(loads, column(t, tables[i], "nodvfs_delay_ns"))
		return knee, loads[len(loads)-1]
	}
	t.Fatal("no fig2b table rendered")
	return 0, 0
}

// TestAdaptiveSweepMatchesFixedGridWithFewerPoints is the PR's headline
// acceptance: the adaptive two-phase planner reproduces the Fig. 2 sweep
// — same saturation knee (within one coarse grid step) and the same
// claim verdicts — while simulating at most a third of the points the
// fixed grid pays for.
func TestAdaptiveSweepMatchesFixedGridWithFewerPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()

	fixedOpts := sweep.Options{Quick: true, Points: 18, Seed: 1}
	fixed, _, err := sweep.Generate(ctx, "baseline", fixedOpts, sweep.Executor{})
	if err != nil {
		t.Fatalf("fixed-grid run: %v", err)
	}
	fixedSims := fixedOpts.Points * 3 // three policies per load

	const budget = 6
	adaptOpts := sweep.Options{Quick: true, Points: 4, Seed: 1, RefineBudget: budget}
	adaptive, stats, err := sweep.Generate(ctx, "baseline", adaptOpts, sweep.Executor{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("adaptive: %d coarse + %d refined = %d points vs %d fixed",
		stats.CoarsePoints, stats.RefinedPoints, stats.Total(), fixedSims)
	if stats.Total()*3 > fixedSims {
		t.Fatalf("adaptive run simulated %d points, want <= 1/3 of the fixed grid's %d",
			stats.Total(), fixedSims)
	}
	if stats.RefinedPoints > budget {
		t.Fatalf("refinement spent %d points over budget %d", stats.RefinedPoints, budget)
	}

	// The knee the dense grid finds must be bracketed by the adaptive run
	// to within one coarse grid step (the resolution the coarse pass has
	// before refinement sharpens it).
	fixedKnee, maxLoad := kneeFromTables(t, fixed)
	adaptKnee, _ := kneeFromTables(t, adaptive)
	coarseStep := maxLoad / float64(adaptOpts.Points)
	if diff := math.Abs(fixedKnee - adaptKnee); diff > coarseStep+1e-9 {
		t.Fatalf("knee: fixed %.4f vs adaptive %.4f, |diff| %.4f > one coarse step %.4f",
			fixedKnee, adaptKnee, diff, coarseStep)
	}

	// The merged tables must pass the paper's claim bands exactly like a
	// fixed-grid run (quick mode tolerates one deviation, as in
	// TestEndToEndPipelineQuick — the grids are noisy, the bands are not).
	all := append(adaptive, sweep.Fig5(adaptOpts)...)
	failed := 0
	for _, v := range report.Check(report.BaselineClaims(), all) {
		if v.Err != nil {
			t.Errorf("claim %s errored: %v", v.Claim.ID, v.Err)
			continue
		}
		if !v.Pass {
			failed++
			t.Logf("claim %s deviated: measured %g outside [%g, %g]",
				v.Claim.ID, v.Measured, v.Claim.Lo, v.Claim.Hi)
		}
	}
	if failed > 1 {
		t.Errorf("%d baseline claims deviated on the adaptive tables", failed)
	}
}
