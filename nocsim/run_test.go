package nocsim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

// quickBase returns a small fast scenario with a pinned calibration, so
// tests exercise single runs rather than the saturation search.
func quickBase() Scenario {
	return Scenario{
		Pattern:     "uniform",
		Load:        0.15,
		Quick:       true,
		Calibration: &Calibration{SaturationRate: 0.42, LambdaMax: 0.378, TargetDelayNs: 150},
	}.Normalized()
}

// metricsJSON renders the measured part of a result for byte-exact
// comparison (Meta is excluded: wall time legitimately differs).
func metricsJSON(t *testing.T, r Result) string {
	t.Helper()
	data, err := json.Marshal(r.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunAlreadyCancelled: a context that is cancelled before Run is
// called must return ctx.Err() promptly, without simulating anything.
func TestRunAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, quickBase())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled Run took %v, want prompt return", d)
	}
}

// TestRunMidRunCancel: cancelling while the engine loop is running must
// abort the simulation promptly with ctx.Err() and leak no goroutines.
func TestRunMidRunCancel(t *testing.T) {
	// Full (non-quick) windows on a loaded 8x8 mesh: several seconds of
	// serial work, so a 100 ms cancel lands mid-run with a wide margin.
	s := Scenario{Pattern: "uniform", Mesh: Mesh{Width: 8, Height: 8}, Load: 0.3}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)

	start := time.Now()
	_, err := Run(ctx, s)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("mid-run cancel returned after %v, want prompt return", elapsed)
	}
	waitForGoroutines(t, before)
}

// TestSweepMidRunCancel: cancelling a Sweep aborts its worker pool and
// every in-flight point, returns ctx.Err(), and leaks no goroutines.
func TestSweepMidRunCancel(t *testing.T) {
	s := Scenario{
		Pattern:     "uniform",
		Mesh:        Mesh{Width: 8, Height: 8},
		Load:        0.3,
		Workers:     4,
		Calibration: &Calibration{SaturationRate: 0.42, LambdaMax: 0.378, TargetDelayNs: 150},
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)

	start := time.Now()
	_, err := Sweep(ctx, Grid{
		Base:     s,
		Loads:    []float64{0.1, 0.2, 0.3, 0.35},
		Policies: []PolicyKind{NoDVFS, RMSD},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("cancelled Sweep returned after %v, want prompt return", elapsed)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines asserts the goroutine count returns to the baseline
// (with a little slack for runtime helpers) within a grace period.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunReproducible: the same scenario run twice yields byte-identical
// metrics — the determinism contract behind the wire form — although the
// second run simulates on the first one's network and generator slab,
// which FabricStats shows.
func TestRunReproducible(t *testing.T) {
	s := quickBase()
	before := FabricStats()
	a, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if metricsJSON(t, a) != metricsJSON(t, b) {
		t.Errorf("two runs of the same scenario differ:\n%s\n%s", metricsJSON(t, a), metricsJSON(t, b))
	}
	u := FabricStats()
	if got := u.FabricsBuilt + u.FabricsReused - before.FabricsBuilt - before.FabricsReused; got != 2 {
		t.Errorf("FabricStats counted %d networks for 2 runs", got)
	}
	if u.FabricsReused == before.FabricsReused || u.SlabsReused == before.SlabsReused {
		t.Errorf("the second run reused nothing: %s (before: %s)", u, before)
	}
}

// TestJSONRoundTripRunByteIdentical is the wire-form determinism
// contract end to end: a scenario that crosses the wire must Run to
// byte-identical metrics on the other side.
func TestJSONRoundTripRunByteIdentical(t *testing.T) {
	rmsd, dmsd, neighbor := quickBase(), quickBase(), quickBase()
	rmsd.Policy = RMSD
	dmsd.Policy = DMSD
	neighbor.Pattern, neighbor.Load = "neighbor", 0.3
	scenarios := []Scenario{quickBase(), rmsd}
	if !testing.Short() {
		scenarios = append(scenarios, dmsd, neighbor, Scenario{
			App: "h264", Load: 0.5, Quick: true,
			Calibration: &Calibration{SaturationRate: 0.9, LambdaMax: 0.3, TargetDelayNs: 120},
		}.Normalized())
	}
	for _, s := range scenarios {
		direct, err := Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		wire, err := Run(context.Background(), back)
		if err != nil {
			t.Fatal(err)
		}
		if metricsJSON(t, direct) != metricsJSON(t, wire) {
			t.Errorf("%s/%s: run after JSON round trip differs:\ndirect %s\nwire   %s",
				s.Pattern+s.App, s.Policy, metricsJSON(t, direct), metricsJSON(t, wire))
		}
	}
}

// TestRunRecordsResolvedCalibration: auto-calibration must surface in
// the result's scenario so the run can be repeated without the search.
func TestRunRecordsResolvedCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs a saturation search")
	}
	s := Scenario{Pattern: "uniform", Load: 0.15, Policy: RMSD, Quick: true}
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	cal := res.Scenario.Calibration
	if cal == nil || cal.LambdaMax <= 0 || cal.TargetDelayNs <= 0 {
		t.Fatalf("resolved calibration not recorded: %+v", cal)
	}
	// Re-running the recorded scenario skips the search and reproduces
	// the metrics exactly.
	again, err := Run(context.Background(), res.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if metricsJSON(t, res) != metricsJSON(t, again) {
		t.Errorf("re-run with recorded calibration differs")
	}
}

// TestRunPacketLog: the runtime packet-log attachment records exactly
// the measured packets.
func TestRunPacketLog(t *testing.T) {
	plog := NewPacketLog(1 << 16)
	s := quickBase()
	s.PacketLog = plog
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if int64(plog.Len()) != res.Packets {
		t.Errorf("log has %d records, result measured %d packets", plog.Len(), res.Packets)
	}
}

// TestThroughputIsAPerNodeRate: a run reports at most one accepted flit
// per node per node cycle at every load, and nothing at all when it
// aborted before its measurement window opened, as the overloaded ones
// here do during warm-up.
func TestThroughputIsAPerNodeRate(t *testing.T) {
	for i := 1; i <= 20; i++ {
		load := 0.05 * float64(i)
		s := quickBase()
		s.Load = load
		r, err := Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		m := r.Metrics
		if m.Throughput < 0 || m.Throughput > 1 {
			t.Errorf("load %.2f: throughput %g flits/node/cycle (saturated %v, %d packets)", load, m.Throughput, m.Saturated, m.Packets)
		}
		if m.Packets == 0 && m.Throughput != 0 {
			t.Errorf("load %.2f: nothing measured, throughput %g", load, m.Throughput)
		}
	}
}

// TestTheoreticalCapacityBoundsSaturation: the channel-load bound takes
// the simulator's routes around a cut and the speed of slower islands —
// 0.80 on the healthy 5x5 uniform mesh, 0.50 with the 6–7 wire cut both
// ways, 0.40 with columns 0–1 at half speed — and the measured saturation
// rate stays at or under it on each.
func TestTheoreticalCapacityBoundsSaturation(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		want float64
	}{
		{"healthy", Scenario{}, 0.80},
		{"cut 6-7", Scenario{FaultyLinks: []string{"6>7", "7>6"}}, 0.50},
		{"columns 0-1 at half speed", Scenario{Islands: []Island{{X0: 0, Y0: 0, X1: 1, Y1: 4, Speed: 0.5}}}, 0.40},
	}
	for _, tc := range cases {
		s := tc.s
		s.Pattern, s.Quick = "uniform", true
		bound, err := TheoreticalCapacity(s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bound-tc.want) > 1e-9 {
			t.Errorf("%s: capacity %.4f, want %.2f", tc.name, bound, tc.want)
		}
		if testing.Short() {
			continue
		}
		sat, err := FindSaturation(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if sat > bound {
			t.Errorf("%s: measured saturation %.4f above the bound %.4f", tc.name, sat, bound)
		}
	}
}
