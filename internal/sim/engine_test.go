package sim

import (
	"testing"

	"repro/internal/dvfs"
)

// TestSetDefaults pins every documented Params default so doc and code
// cannot drift apart silently again (MaxWarmup once said 1 000 000 in the
// doc while setDefaults used 500 000).
func TestSetDefaults(t *testing.T) {
	p := Params{}
	p.setDefaults()
	if p.FNode != 1e9 {
		t.Errorf("FNode default = %g, want 1e9", p.FNode)
	}
	if p.ControlPeriod != dvfs.ControlPeriodNodeCycles {
		t.Errorf("ControlPeriod default = %d, want %d", p.ControlPeriod, dvfs.ControlPeriodNodeCycles)
	}
	if p.Warmup != 30000 {
		t.Errorf("Warmup default = %d, want 30000", p.Warmup)
	}
	if p.Measure != 60000 {
		t.Errorf("Measure default = %d, want 60000", p.Measure)
	}
	if p.backlogPerNode != satBacklogPerNode {
		t.Errorf("backlog cap default = %g, want satBacklogPerNode", p.backlogPerNode)
	}
	if p.MaxWarmup != 1_000_000 {
		t.Errorf("MaxWarmup default = %d, want 1000000 (as documented)", p.MaxWarmup)
	}
}

// TestSetDefaultsPreservesExplicit checks that explicitly set values are
// not overwritten.
func TestSetDefaultsPreservesExplicit(t *testing.T) {
	p := Params{FNode: 2e9, Warmup: 7, Measure: 9, MaxWarmup: 42}
	p.setDefaults()
	if p.FNode != 2e9 || p.Warmup != 7 || p.Measure != 9 || p.MaxWarmup != 42 {
		t.Errorf("setDefaults clobbered explicit values: %+v", p)
	}
}

// TestStabilityThreshold pins the adaptive-warmup stability tolerance to
// the documented 0.3% and checks the detector's accept/reset behaviour
// right at the boundary.
func TestStabilityThreshold(t *testing.T) {
	if stabilityRelTol != 0.003 {
		t.Fatalf("stabilityRelTol = %g, want 0.003 (documented on Params.AdaptiveWarmup)", stabilityRelTol)
	}
	e := &engine{f: 1e9, p: Params{Policy: dvfs.NewNoDVFS(1e9)}}
	e.updateStability(dvfs.Measurement{}, 1e9*(1+0.9*stabilityRelTol))
	if e.stableRuns != 1 {
		t.Errorf("change below tolerance: stableRuns = %d, want 1", e.stableRuns)
	}
	e.updateStability(dvfs.Measurement{}, 1e9*(1-0.9*stabilityRelTol))
	if e.stableRuns != 2 {
		t.Errorf("negative change below tolerance: stableRuns = %d, want 2", e.stableRuns)
	}
	e.updateStability(dvfs.Measurement{}, 1e9*(1+1.5*stabilityRelTol))
	if e.stableRuns != 0 {
		t.Errorf("change above tolerance must reset the run: stableRuns = %d, want 0", e.stableRuns)
	}
}

// TestMeasurementWindowExactAtSlowClock is the regression test for the
// window-overshoot bug: with the network clock at a third of the node
// clock, each network cycle spans three node cycles, and the old per-
// network-cycle end check overran the window by up to two node cycles
// while the throughput denominator assumed exactly Measure.
func TestMeasurementWindowExactAtSlowClock(t *testing.T) {
	p := testParams(t, 0.05, dvfs.NewNoDVFS(1e9))
	p.FNode = 3e9 // Fnoc = FNode/3
	p.Warmup = 6000
	p.Measure = 10_001 // not a multiple of 3: the window must end mid network cycle
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredNodeCycles != p.Measure {
		t.Errorf("MeasuredNodeCycles = %d, want exactly %d", res.MeasuredNodeCycles, p.Measure)
	}
	if res.Packets == 0 || res.Throughput <= 0 {
		t.Errorf("degenerate run: packets=%d throughput=%g", res.Packets, res.Throughput)
	}
}

// TestMeasurementWindowExactAtEqualClocks covers the common Fnoc == FNode
// case, where the fix must be a no-op.
func TestMeasurementWindowExactAtEqualClocks(t *testing.T) {
	p := testParams(t, 0.1, dvfs.NewNoDVFS(1e9))
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredNodeCycles != p.Measure {
		t.Errorf("MeasuredNodeCycles = %d, want %d", res.MeasuredNodeCycles, p.Measure)
	}
}

// TestP99ExtendsBeyondInitialRange drives the network deep into saturation
// so source-queue delays dwarf the histogram's initial 5 µs span; the
// extending histogram must report the real tail instead of clamping P99 at
// exactly 5000 ns.
func TestP99ExtendsBeyondInitialRange(t *testing.T) {
	p := testParams(t, 0.8, dvfs.NewNoDVFS(1e9))
	p.backlogPerNode = 1e9 // keep the run alive: no early abort
	p.Warmup = 20000
	p.Measure = 30000
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("0.8 uniform load should saturate the 5x5 mesh")
	}
	if res.P99DelayNs <= 5000 {
		t.Errorf("P99 = %.0f ns, still clamped at the initial histogram range", res.P99DelayNs)
	}
	if res.P99DelayNs < res.AvgDelayNs {
		t.Errorf("P99 %.0f ns below mean %.0f ns", res.P99DelayNs, res.AvgDelayNs)
	}
}
