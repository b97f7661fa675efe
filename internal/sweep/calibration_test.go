package sweep

import (
	"context"
	"testing"

	"repro/nocsim"
)

// TestPlansShareCalibrations plans baseline, then pi, then fig8 in one
// process, as `figures -fig 2,pi,8` does, and counts the saturation
// searches: the default fabric is searched once — pi differs from it only
// in controller fields and runs just its own reference point, and four of
// fig8's twelve panels are the default fabric again (vc8, buf4, pkt20,
// mesh5x5) — so the three plans cost nine searches, not fourteen. The
// reused calibrations must be the ones a plan would have measured itself.
func TestPlansShareCalibrations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: plans fig8")
	}
	// A seed of its own: the memo is process-wide and other tests plan the
	// default fabric under the default seed.
	o := Options{Quick: true, Points: 2, Seed: 8128}
	counters := func() [3]int64 {
		searches, searchesReused, calsReused, _ := nocsim.CalibrationStats()
		return [3]int64{searches, searchesReused, calsReused}
	}
	start := counters()
	moved := func() [3]int64 {
		now := counters()
		for i := range now {
			now[i] -= start[i]
		}
		return now
	}
	ctx := context.Background()

	baseline, err := Plan(ctx, "baseline", o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := moved(), [3]int64{1, 0, 0}; got != want {
		t.Errorf("after baseline: searches run/reused, calibrations reused = %v, want %v", got, want)
	}
	pi, err := Plan(ctx, "pi", o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := moved(), [3]int64{1, 1, 0}; got != want {
		t.Errorf("after pi: searches run/reused, calibrations reused = %v, want %v", got, want)
	}
	fig8, err := Plan(ctx, "fig8", o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := moved(), [3]int64{9, 1, 4}; got != want {
		t.Errorf("after fig8: searches run/reused, calibrations reused = %v, want %v", got, want)
	}

	base := *baseline.Panels[0].Grid.Base.Calibration
	if c := *pi.Panels[0].Grid.Base.Calibration; c.SaturationRate != base.SaturationRate || c.TargetDelayNs == base.TargetDelayNs {
		t.Errorf("pi calibration %+v: want baseline's saturation %v and a target of its own (transient windows)", c, base.SaturationRate)
	}
	for _, p := range fig8.Panels {
		same := p.Label == "vc8" || p.Label == "buf4" || p.Label == "pkt20" || p.Label == "mesh5x5"
		if c := *p.Grid.Base.Calibration; (c == base) != same {
			t.Errorf("fig8 panel %s: calibration %+v, baseline %+v; equal = %v, want %v", p.Label, c, base, c == base, same)
		}
	}
}
