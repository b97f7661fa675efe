package nocsim_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/sweep"
	"repro/nocsim"
)

// TestPlansShareCalibrations plans baseline, then pi, then fig8 in one
// process, as `figures -fig 2,pi,8` does, and counts the saturation
// searches: the default fabric is searched once — pi differs from it only
// in controller fields and runs just its own reference point, and four of
// fig8's twelve panels are the default fabric again (vc8, buf4, pkt20,
// mesh5x5) — so the three plans cost nine searches, not fourteen. The
// reused calibrations must be the ones a plan would have measured itself.
//
// The search is a stub that gives every fabric a rate of its own, so only
// the reference runs simulate.
func TestPlansShareCalibrations(t *testing.T) {
	var searches atomic.Int64
	nocsim.StubSearch(t, func(s nocsim.Scenario) float64 {
		searches.Add(1)
		s.Workers = 0 // beside the search's scenario, not part of it
		data, err := json.Marshal(s)
		if err != nil {
			t.Error(err)
		}
		h := sha256.Sum256(data)
		return 0.1 + 0.05*float64(binary.BigEndian.Uint16(h[:]))/(1<<16)
	})
	o := sweep.Options{Quick: true, Points: 2}
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

	baseline, err := sweep.Plan(ctx, "baseline", o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := moved(), [3]int64{1, 0, 0}; got != want {
		t.Errorf("after baseline: searches run/reused, calibrations reused = %v, want %v", got, want)
	}
	pi, err := sweep.Plan(ctx, "pi", o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := moved(), [3]int64{1, 1, 0}; got != want {
		t.Errorf("after pi: searches run/reused, calibrations reused = %v, want %v", got, want)
	}
	fig8, err := sweep.Plan(ctx, "fig8", o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := moved(), [3]int64{9, 1, 4}; got != want {
		t.Errorf("after fig8: searches run/reused, calibrations reused = %v, want %v", got, want)
	}
	if n := searches.Load(); n != 9 {
		t.Errorf("the stub searched %d times, want 9", n)
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
