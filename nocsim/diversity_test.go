package nocsim

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureQuickTrace runs a quick Bernoulli scenario with a trace sink
// attached and returns the sink plus the capture run's result.
func captureQuickTrace(t *testing.T, s Scenario) (*Trace, Result) {
	t.Helper()
	sink := NewTrace()
	s.TraceCapture = sink
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Fatal("capture recorded no events")
	}
	return sink, res
}

// TestTraceCaptureReplayBitIdentical is the tentpole's round-trip
// contract: a captured trace, saved to its golden-file form and replayed
// through TraceRef, reproduces the capture run's network evolution bit
// for bit. Only OfferedRate legitimately differs: the capture reports the
// nominal Bernoulli rate, the replay the trace's realized rate.
func TestTraceCaptureReplayBitIdentical(t *testing.T) {
	sink, capRes := captureQuickTrace(t, Scenario{Pattern: "uniform", Load: 0.15, Quick: true, Seed: 7})

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := sink.Save(path); err != nil {
		t.Fatal(err)
	}
	replay := Scenario{TraceRef: path, Quick: true, Seed: 7}
	repRes, err := Run(context.Background(), replay)
	if err != nil {
		t.Fatal(err)
	}

	if math.Abs(repRes.Metrics.OfferedRate-capRes.Metrics.OfferedRate) > 0.01 {
		t.Errorf("replay offered rate %.4f far from capture %.4f",
			repRes.Metrics.OfferedRate, capRes.Metrics.OfferedRate)
	}
	capM, repM := capRes.Metrics, repRes.Metrics
	capM.OfferedRate, repM.OfferedRate = 0, 0
	if got, want := metricsJSON(t, Result{Metrics: repM}), metricsJSON(t, Result{Metrics: capM}); got != want {
		t.Errorf("replay diverged from capture:\ncapture %s\nreplay  %s", want, got)
	}
}

// TestTraceGoldenCapture pins the trace wire form: a fixed-seed quick
// capture on a 3x3 mesh must reproduce testdata/trace.golden.json byte
// for byte — capture determinism and file format in one check.
func TestTraceGoldenCapture(t *testing.T) {
	sink, _ := captureQuickTrace(t, Scenario{
		Pattern: "uniform", Mesh: Mesh{Width: 3, Height: 3}, Load: 0.05, Quick: true, Seed: 7,
	})
	var buf strings.Builder
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if buf.String() != string(want) {
		t.Errorf("captured trace drifted from %s (run with UPDATE_GOLDEN=1 to regenerate after intentional engine changes)", golden)
	}
}

// TestTraceGoldenReplayRuns: the checked-in golden trace keeps replaying —
// the compatibility guarantee for traces recorded by older builds.
func TestTraceGoldenReplayRuns(t *testing.T) {
	golden := filepath.Join("testdata", "trace.golden.json")
	tr, err := LoadTrace(golden)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{TraceRef: golden, Mesh: Mesh{Width: 3, Height: 3}, Quick: true}
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Metrics.OfferedRate-tr.MeanRate()) > 1e-9 {
		t.Errorf("replay offered rate %.6f, trace mean rate %.6f", res.Metrics.OfferedRate, tr.MeanRate())
	}
	if res.Metrics.Throughput <= 0 {
		t.Error("golden replay delivered nothing")
	}
}

// TestTraceReplayUnderDMSD: a DVFS-controlled replay measures the same
// node-cycle window the capture run did. DMSD's adaptive warmup would
// otherwise idle past the end of the recorded events and measure an
// empty network (a regression this test pins).
func TestTraceReplayUnderDMSD(t *testing.T) {
	sink, _ := captureQuickTrace(t, Scenario{Pattern: "uniform", Load: 0.15, Quick: true, Seed: 7})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := sink.Save(path); err != nil {
		t.Fatal(err)
	}
	s := Scenario{
		TraceRef: path, Quick: true, Policy: DMSD,
		Calibration: &Calibration{SaturationRate: 0.46, LambdaMax: 0.41, TargetDelayNs: 186},
	}
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Throughput <= 0 {
		t.Error("DMSD replay measured an empty network")
	}
	if res.Metrics.AvgFreqHz >= 1e9 {
		t.Errorf("DMSD replay never throttled: avg freq %.0f Hz", res.Metrics.AvgFreqHz)
	}
}

// TestBurstSourceChangesDynamicsNotLoad: an MMPP source redistributes the
// same offered traffic in time — the measured stream differs from the
// Bernoulli run, the delivered volume stays close, and the burstier
// arrivals cost latency.
func TestBurstSourceChangesDynamicsNotLoad(t *testing.T) {
	ctx := context.Background()
	base := quickBase()
	base.Seed = 21
	mmpp := base
	mmpp.Source = &SourceSpec{Kind: SourceMMPP, BurstRatio: 6, BurstLen: 80}
	pres, err := Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := Run(ctx, mmpp)
	if err != nil {
		t.Fatal(err)
	}
	if metricsJSON(t, pres) == metricsJSON(t, mres) {
		t.Error("MMPP run identical to Bernoulli run")
	}
	p, m := pres.Metrics.Throughput, mres.Metrics.Throughput
	if math.Abs(p-m) > p*0.15 {
		t.Errorf("MMPP throughput %.4f far from Bernoulli %.4f (mean should be preserved)", m, p)
	}
	if mres.Metrics.AvgLatencyCycles <= pres.Metrics.AvgLatencyCycles {
		t.Errorf("MMPP latency %.2f not above Bernoulli %.2f — bursts should queue",
			mres.Metrics.AvgLatencyCycles, pres.Metrics.AvgLatencyCycles)
	}
}

// TestParetoSourceRuns: the self-similar source completes and preserves
// throughput like the MMPP one.
func TestParetoSourceRuns(t *testing.T) {
	s := quickBase()
	s.Seed = 5
	s.Source = &SourceSpec{Kind: SourcePareto, BurstRatio: 4, BurstLen: 60, ParetoAlpha: 1.4}
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Metrics.Throughput-0.15) > 0.03 {
		t.Errorf("Pareto throughput %.4f, want ≈ 0.15", res.Metrics.Throughput)
	}
}

// TestFaultyLinksRun: traffic routes around masked channels (the engine
// panics if anything crosses one), and a disconnecting fault set fails
// with a clear error instead of hanging.
func TestFaultyLinksRun(t *testing.T) {
	s := quickBase()
	s.FaultyLinks = []string{"6>7", "7>6", "16>17"}
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Throughput <= 0 {
		t.Error("faulted mesh delivered nothing")
	}

	dead := quickBase()
	dead.FaultyLinks = []string{"0>1", "0>5"}
	if _, err := Run(context.Background(), dead); err == nil || !strings.Contains(err.Error(), "disconnect") {
		t.Errorf("disconnecting fault set: err = %v", err)
	}
}

// TestIslandsSlowTheMesh: a half-speed island across the mesh raises the
// measured latency of the identical traffic script.
func TestIslandsSlowTheMesh(t *testing.T) {
	ctx := context.Background()
	base := quickBase()
	base.Seed = 3
	slowed := base
	slowed.Islands = []Island{{X0: 0, Y0: 0, X1: 4, Y1: 4, Speed: 0.5}}
	bres, err := Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(ctx, slowed)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Metrics.AvgLatencyCycles <= bres.Metrics.AvgLatencyCycles {
		t.Errorf("island latency %.2f not above full-speed %.2f",
			sres.Metrics.AvgLatencyCycles, bres.Metrics.AvgLatencyCycles)
	}
}

// TestNonSquareMeshDeterministic: rectangular fabrics run, measure
// traffic and reproduce their metrics bit for bit like square ones.
func TestNonSquareMeshDeterministic(t *testing.T) {
	ctx := context.Background()
	s := quickBase()
	s.Mesh.Width, s.Mesh.Height = 6, 3
	s.Seed = 9
	first, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if first.Metrics.Packets == 0 {
		t.Fatal("degenerate run: no packets measured")
	}
	second, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if metricsJSON(t, first) != metricsJSON(t, second) {
		t.Error("6x3 mesh diverges between two runs of the same scenario")
	}
}
