package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/traffic"
	"repro/internal/volt"
)

// testParams builds a baseline-parameter run with reduced windows to keep
// the test suite fast.
func testParams(t *testing.T, rate float64, policy dvfs.Policy) Params {
	t.Helper()
	cfg := noc.DefaultConfig()
	inj, err := traffic.NewInjector(cfg, traffic.NewUniform(cfg), rate, 1234)
	if err != nil {
		t.Fatal(err)
	}
	pm := power.Default28nm()
	return Params{
		Noc:      cfg,
		Injector: inj,
		Policy:   policy,
		VF:       volt.New(),
		Power:    &pm,
		Warmup:   10000,
		Measure:  30000,
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Params{}); err == nil {
		t.Error("Run accepted empty params")
	}
	p := testParams(t, 0.1, dvfs.NewNoDVFS(1e9))
	p.Injector = nil
	if _, err := Run(p); err == nil {
		t.Error("Run accepted nil injector")
	}
	p = testParams(t, 0.1, nil)
	if _, err := Run(p); err == nil {
		t.Error("Run accepted nil policy")
	}
	p = testParams(t, 0.1, dvfs.NewNoDVFS(1e9))
	p.Noc.VCs = 0
	if _, err := Run(p); err == nil {
		t.Error("Run accepted invalid noc config")
	}
}

func TestNoDVFSLatencyEqualsDelay(t *testing.T) {
	// At a fixed 1 GHz network clock, 1 cycle = 1 ns, so latency in cycles
	// and delay in ns must agree.
	res, err := Run(testParams(t, 0.15, dvfs.NewNoDVFS(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets < 1000 {
		t.Fatalf("only %d packets measured", res.Packets)
	}
	if res.Saturated {
		t.Fatal("saturated at 0.15 load")
	}
	if math.Abs(res.AvgLatencyCycles-res.AvgDelayNs) > 1.5 {
		t.Errorf("latency %.2f cycles vs delay %.2f ns: should match at 1 GHz",
			res.AvgLatencyCycles, res.AvgDelayNs)
	}
	if math.Abs(res.AvgFreqHz-1e9) > 1 {
		t.Errorf("AvgFreq = %g, want 1 GHz", res.AvgFreqHz)
	}
	if math.Abs(res.AvgVolts-0.9) > 1e-6 {
		t.Errorf("AvgVolts = %g, want 0.9", res.AvgVolts)
	}
}

func TestThroughputMatchesOffered(t *testing.T) {
	res, err := Run(testParams(t, 0.2, dvfs.NewNoDVFS(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-0.2) > 0.02 {
		t.Errorf("throughput %.3f, want ~0.2", res.Throughput)
	}
	if math.Abs(res.OfferedRate-0.2) > 1e-9 {
		t.Errorf("offered %.3f", res.OfferedRate)
	}
}

func newRMSD(t *testing.T) *dvfs.RMSD {
	t.Helper()
	p, err := dvfs.NewRMSD(1e9, 0.378, dvfs.Range{FMin: volt.FMin, FMax: volt.FMax})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRMSDFrequencyFollowsEq2(t *testing.T) {
	// In the scaling range the average frequency must sit near
	// Fnode·λ/λmax (Eq. 2).
	for _, rate := range []float64{0.2, 0.3} {
		res, err := Run(testParams(t, rate, newRMSD(t)))
		if err != nil {
			t.Fatal(err)
		}
		want := 1e9 * rate / 0.378
		if math.Abs(res.AvgFreqHz-want)/want > 0.06 {
			t.Errorf("rate %.2f: avg freq %.3g, want %.3g ± 6%%", rate, res.AvgFreqHz, want)
		}
		if res.Saturated {
			t.Errorf("rate %.2f: RMSD saturated below λmax", rate)
		}
	}
}

func TestRMSDClipsAtFMinBelowLambdaMin(t *testing.T) {
	res, err := Run(testParams(t, 0.05, newRMSD(t)))
	if err != nil {
		t.Fatal(err)
	}
	// λmin = 0.378/3 ≈ 0.126 > 0.05, so the clock pins at FMin.
	if math.Abs(res.AvgFreqHz-333e6)/333e6 > 0.02 {
		t.Errorf("avg freq %.3g, want FMin", res.AvgFreqHz)
	}
}

func TestRMSDDelayExceedsNoDVFS(t *testing.T) {
	// The headline observation: RMSD's delay in ns is far above the
	// No-DVFS delay at moderate load.
	base, err := Run(testParams(t, 0.2, dvfs.NewNoDVFS(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	rmsd, err := Run(testParams(t, 0.2, newRMSD(t)))
	if err != nil {
		t.Fatal(err)
	}
	if rmsd.AvgDelayNs < 2*base.AvgDelayNs {
		t.Errorf("RMSD delay %.1f ns not well above No-DVFS %.1f ns",
			rmsd.AvgDelayNs, base.AvgDelayNs)
	}
	// And the power ordering must be the reverse.
	if rmsd.AvgPowerMW >= base.AvgPowerMW {
		t.Errorf("RMSD power %.1f mW not below No-DVFS %.1f mW",
			rmsd.AvgPowerMW, base.AvgPowerMW)
	}
}

func TestRMSDNonMonotonicDelay(t *testing.T) {
	// Fig. 2b: the RMSD delay peaks near λmin and *decreases* with rising
	// rate inside [λmin, λmax].
	delay := func(rate float64) float64 {
		res, err := Run(testParams(t, rate, newRMSD(t)))
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgDelayNs
	}
	low := delay(0.04)     // below λmin, lightly loaded at FMin
	peak := delay(0.12)    // at λmin: loaded and slow — the peak
	midHigh := delay(0.30) // inside scaling range: faster clock
	if !(peak > low && peak > midHigh) {
		t.Errorf("delay curve not non-monotonic: d(0.04)=%.0f d(0.12)=%.0f d(0.30)=%.0f",
			low, peak, midHigh)
	}
}

func newDMSD(t *testing.T, target float64) *dvfs.DMSD {
	t.Helper()
	p, err := dvfs.NewDMSD(target, dvfs.Range{FMin: volt.FMin, FMax: volt.FMax}, dvfs.DefaultKI, dvfs.DefaultKP)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDMSDTracksTargetDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: PI settling needs long windows")
	}
	// With a 150 ns target and moderate load, the measured delay must sit
	// near the target (Fig. 4b's flat DMSD curve).
	p := testParams(t, 0.2, newDMSD(t, 150))
	p.AdaptiveWarmup = true // let the PI loop settle before measuring
	p.Measure = 150000      // average over several limit-cycle periods
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AvgDelayNs-150)/150 > 0.25 {
		t.Errorf("DMSD delay %.1f ns, want 150 ± 25%%", res.AvgDelayNs)
	}
	if res.Saturated {
		t.Error("DMSD saturated at 0.2 load")
	}
}

func TestDMSDWarmStartSkipsTransient(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: PI settling needs long windows")
	}
	// A warm-started controller must settle far faster: with the initial
	// frequency near the setpoint, the fixed short warmup suffices.
	pol := newDMSD(t, 150)
	p := testParams(t, 0.2, pol)
	p.AdaptiveWarmup = true
	res1, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	settled := pol.Freq()
	pol.WarmStart(settled)
	p2 := testParams(t, 0.2, pol)
	p2.Warmup = 30000
	res2, err := Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.AvgDelayNs-res1.AvgDelayNs)/res1.AvgDelayNs > 0.25 {
		t.Errorf("warm-started delay %.1f ns far from converged %.1f ns",
			res2.AvgDelayNs, res1.AvgDelayNs)
	}
}

func TestPowerOrderingRMSDBelowDMSDBelowBase(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: PI settling needs long windows")
	}
	// Fig. 6 at 0.2 injection rate: P(RMSD) < P(DMSD) < P(No-DVFS).
	mk := func(pol dvfs.Policy) Result {
		p := testParams(t, 0.2, pol)
		p.AdaptiveWarmup = true
		p.Measure = 60000
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(dvfs.NewNoDVFS(1e9))
	rmsd := mk(newRMSD(t))
	dmsd := mk(newDMSD(t, 150))
	if !(rmsd.AvgPowerMW < dmsd.AvgPowerMW && dmsd.AvgPowerMW < base.AvgPowerMW) {
		t.Errorf("power ordering violated: RMSD %.1f, DMSD %.1f, No-DVFS %.1f mW",
			rmsd.AvgPowerMW, dmsd.AvgPowerMW, base.AvgPowerMW)
	}
	// And delay ordering is the mirror image.
	if !(rmsd.AvgDelayNs > dmsd.AvgDelayNs) {
		t.Errorf("delay ordering violated: RMSD %.1f ns vs DMSD %.1f ns",
			rmsd.AvgDelayNs, dmsd.AvgDelayNs)
	}
}

func TestSaturationFlag(t *testing.T) {
	res, err := Run(testParams(t, 0.9, dvfs.NewNoDVFS(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Error("0.9 load on 5x5 uniform should saturate")
	}
}

func TestTraceCollection(t *testing.T) {
	p := testParams(t, 0.2, newDMSD(t, 150))
	p.TraceFreq = true
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace samples collected")
	}
	// Trace must be time-ordered with in-range frequencies.
	prev := -1.0
	for _, s := range res.Trace {
		if s.TimeNs <= prev {
			t.Fatal("trace not time-ordered")
		}
		prev = s.TimeNs
		if s.FreqHz < 333e6-1 || s.FreqHz > 1e9+1 {
			t.Fatalf("trace frequency %g out of range", s.FreqHz)
		}
		if s.Volts < 0.5 || s.Volts > 0.91 {
			t.Fatalf("trace voltage %g out of range", s.Volts)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	r1, err := Run(testParams(t, 0.25, newRMSD(t)))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testParams(t, 0.25, newRMSD(t)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.AvgLatencyCycles != r2.AvgLatencyCycles || r1.AvgPowerMW != r2.AvgPowerMW ||
		r1.Packets != r2.Packets {
		t.Errorf("identical runs diverged: %+v vs %+v", r1, r2)
	}
}

// TestRepeatedRunsFullyDeterministic is the strong form of the
// determinism contract the parallel experiment engine builds on: for
// every policy class, repeating a run from the same seed must reproduce
// the *entire* Result — every float, counter and trace sample — bit for
// bit.
func TestRepeatedRunsFullyDeterministic(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Params
	}{
		{"nodvfs", func() Params { return testParams(t, 0.2, dvfs.NewNoDVFS(1e9)) }},
		{"rmsd", func() Params { return testParams(t, 0.25, newRMSD(t)) }},
		{"dmsd-traced", func() Params {
			p := testParams(t, 0.2, newDMSD(t, 150))
			p.TraceFreq = true
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r1, err := Run(tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("repeated %s runs diverged:\nfirst:  %+v\nsecond: %+v", tc.name, r1, r2)
			}
		})
	}
}

func TestRunWithoutPowerModel(t *testing.T) {
	p := testParams(t, 0.1, dvfs.NewNoDVFS(1e9))
	p.Power = nil
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgPowerMW != 0 {
		t.Errorf("power %g without a model", res.AvgPowerMW)
	}
	if res.Packets == 0 {
		t.Error("no packets measured")
	}
}

func TestMatrixTrafficRuns(t *testing.T) {
	cfg := noc.DefaultConfig()
	w := make([][]float64, 25)
	for i := range w {
		w[i] = make([]float64, 25)
	}
	w[0][24] = 5
	w[6][18] = 2
	mp, err := traffic.NewMatrixPattern("pair", cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := traffic.RowRates(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		rates[i] *= 0.3
	}
	inj, err := traffic.NewInjectorRates(cfg, mp, rates, 7)
	if err != nil {
		t.Fatal(err)
	}
	pm := power.Default28nm()
	res, err := Run(Params{
		Noc: cfg, Injector: inj, Policy: dvfs.NewNoDVFS(1e9),
		VF: volt.New(), Power: &pm, Warmup: 5000, Measure: 15000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Error("matrix traffic produced no packets")
	}
}

func TestP99AboveMean(t *testing.T) {
	res, err := Run(testParams(t, 0.25, dvfs.NewNoDVFS(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	if res.P99DelayNs < res.AvgDelayNs {
		t.Errorf("P99 %.1f below mean %.1f", res.P99DelayNs, res.AvgDelayNs)
	}
}
