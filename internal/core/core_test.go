package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// quickScenario returns the paper's baseline scenario with shrunk windows.
func quickScenario() Scenario {
	return Scenario{
		Noc:     noc.DefaultConfig(),
		Pattern: "uniform",
		Quick:   true,
	}
}

func TestLoadGrid(t *testing.T) {
	g := LoadGrid(0.4, 4)
	want := []float64{0.1, 0.2, 0.3, 0.4}
	if len(g) != 4 {
		t.Fatalf("grid %v", g)
	}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Errorf("grid[%d] = %g, want %g", i, g[i], want[i])
		}
	}
	if LoadGrid(0.4, 0) != nil {
		t.Error("LoadGrid(_, 0) should be nil")
	}
}

func TestFindSaturationBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: saturation search runs tens of simulations")
	}
	// The paper reports saturation ≈0.42 for the baseline configuration
	// (Sec. III). Accept a band around it: exact value depends on
	// allocator details.
	sat, _, err := FindSaturation(context.Background(), quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if sat < 0.3 || sat > 0.6 {
		t.Errorf("saturation = %.3f, want in [0.3, 0.6] (paper: 0.42)", sat)
	}
}

func TestFindSaturationFewerVCsIsLower(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: saturation search runs tens of simulations")
	}
	s := quickScenario()
	sat8, _, err := FindSaturation(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	s.Noc.VCs = 2
	sat2, _, err := FindSaturation(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if sat2 >= sat8 {
		t.Errorf("2-VC saturation %.3f not below 8-VC %.3f", sat2, sat8)
	}
}

func TestCalibrate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: calibration runs a saturation search")
	}
	cal, err := Calibrate(context.Background(), quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cal.LambdaMax-0.9*cal.SaturationRate) > 1e-12 {
		t.Errorf("λmax %.3f not 90%% of saturation %.3f", cal.LambdaMax, cal.SaturationRate)
	}
	// The target is the near-saturation delay at 1 GHz: must be well above
	// the zero-load latency (~40 ns) and below the saturation guard.
	if cal.TargetDelayNs < 50 || cal.TargetDelayNs > 2000 {
		t.Errorf("target delay %.1f ns implausible", cal.TargetDelayNs)
	}
}

func TestRunOneNoDVFS(t *testing.T) {
	res, err := RunOne(context.Background(), quickScenario(), NoDVFS, 0.15, Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 || res.Saturated {
		t.Errorf("unexpected result: %+v", res)
	}
}

func TestRunOneUnknownPolicy(t *testing.T) {
	_, err := RunOne(context.Background(), quickScenario(), PolicyKind("magic"), 0.1, Calibration{SaturationRate: 0.4, LambdaMax: 0.36, TargetDelayNs: 150})
	if err == nil {
		t.Error("accepted unknown policy")
	}
}

// runPoints runs each policy once at load on the scenario, as a grid of
// nocsim points does.
func runPoints(t *testing.T, s Scenario, load float64, kinds []PolicyKind, cal Calibration) map[PolicyKind]sim.Result {
	t.Helper()
	out := make(map[PolicyKind]sim.Result, len(kinds))
	for _, kind := range kinds {
		res, err := RunOne(context.Background(), s, kind, load, cal)
		if err != nil {
			t.Fatal(err)
		}
		out[kind] = res
	}
	return out
}

func TestComparePoliciesOrderings(t *testing.T) {
	// One moderate-load point, all three policies, fixed calibration to
	// keep the test fast and deterministic. Verifies the paper's headline
	// orderings: P(RMSD) < P(DMSD) < P(NoDVFS); D(RMSD) > D(DMSD).
	res := runPoints(t, quickScenario(), 0.2, []PolicyKind{NoDVFS, RMSD, DMSD}, goldenCal())
	pN, pR, pD := res[NoDVFS], res[RMSD], res[DMSD]
	if !(pR.AvgPowerMW < pD.AvgPowerMW && pD.AvgPowerMW < pN.AvgPowerMW) {
		t.Errorf("power ordering: rmsd %.1f, dmsd %.1f, nodvfs %.1f mW",
			pR.AvgPowerMW, pD.AvgPowerMW, pN.AvgPowerMW)
	}
	if pR.AvgDelayNs <= pD.AvgDelayNs {
		t.Errorf("delay ordering: rmsd %.1f ns not above dmsd %.1f ns",
			pR.AvgDelayNs, pD.AvgDelayNs)
	}
}

func TestComparePoliciesAppScenario(t *testing.T) {
	app := apps.H264()
	s := Scenario{
		Noc:   noc.Config{Width: 4, Height: 4, VCs: 8, BufDepth: 4, PacketSize: 20, Routing: noc.RoutingXY},
		App:   &app,
		Quick: true,
	}
	cal := Calibration{SaturationRate: 0.5, LambdaMax: 0.45, TargetDelayNs: 120}
	res := runPoints(t, s, 0.5, []PolicyKind{NoDVFS, RMSD}, cal)
	if res[NoDVFS].Packets == 0 {
		t.Error("app scenario measured no packets")
	}
	if res[RMSD].AvgPowerMW >= res[NoDVFS].AvgPowerMW {
		t.Error("RMSD power not below No-DVFS on app traffic")
	}
}

// TestOfferedRateMatchesInjector: Calibrate's λmax and the DMSD warm-start
// frequency come from offeredRate; it must return, to the last bit, the
// MeanRate of the injector the scenario would build — for a synthetic
// pattern, an application rate vector and a recorded trace.
func TestOfferedRateMatchesInjector(t *testing.T) {
	app := apps.H264()
	appScenario := Scenario{
		Noc: noc.Config{Width: 4, Height: 4, VCs: 8, BufDepth: 4, PacketSize: 20, Routing: noc.RoutingXY},
		App: &app,
	}
	var tr trace.Injection
	capture := quickScenario()
	capture.TraceCapture = &tr
	cal := Calibration{SaturationRate: 0.4, LambdaMax: 0.36, TargetDelayNs: 150}
	if _, err := RunOne(context.Background(), capture, NoDVFS, 0.17, cal); err != nil {
		t.Fatal(err)
	}
	replay := quickScenario()
	replay.Pattern, replay.Trace = "", &tr

	for name, s := range map[string]Scenario{"uniform": quickScenario(), "app": appScenario, "trace": replay} {
		s.setDefaults()
		for _, load := range []float64{0.07, 0.1, 0.3, 1.0 / 3} {
			inj, err := s.injector(load, s.Seed)
			if err != nil {
				t.Fatalf("%s at %g: %v", name, load, err)
			}
			got, err := s.offeredRate(load)
			if err != nil {
				t.Fatalf("%s at %g: %v", name, load, err)
			}
			if want := inj.MeanRate(); got != want || got <= 0 {
				t.Errorf("%s at %g: offeredRate %v, injector MeanRate %v", name, load, got, want)
			}
		}
	}
}
