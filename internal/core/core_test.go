package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/noc"
	"repro/nocsim"
)

// quickScenario returns the paper's baseline scenario with shrunk windows.
func quickScenario() Scenario {
	return Scenario{
		Noc:     noc.DefaultConfig(),
		Pattern: "uniform",
		Quick:   true,
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
	res, err := RunOne(context.Background(), quickScenario(), nocsim.NoDVFS, 0.15, nocsim.Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 || res.Saturated {
		t.Errorf("unexpected result: %+v", res.Metrics)
	}
}

func TestRunOneUnknownPolicy(t *testing.T) {
	_, err := RunOne(context.Background(), quickScenario(), nocsim.PolicyKind("magic"), 0.1, nocsim.Calibration{SaturationRate: 0.4, LambdaMax: 0.36, TargetDelayNs: 150})
	if err == nil {
		t.Error("accepted unknown policy")
	}
}
