package nocsim

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
)

// These tests drive the unmemoized recipe of engine.go directly: the
// search, the calibration run and single points on a fixed calibration.

// quickScenario returns the paper's baseline scenario with shrunk windows.
func quickScenario() Scenario {
	return Scenario{Pattern: "uniform", Quick: true}.Normalized()
}

// goldenCal is a fixed calibration so the golden tests exercise only the
// runs, not the saturation search.
func goldenCal() Calibration {
	return Calibration{SaturationRate: 0.42, LambdaMax: 0.378, TargetDelayNs: 150}
}

// mustResolve normalizes, validates and resolves the scenario.
func mustResolve(t *testing.T, s Scenario) *resolved {
	t.Helper()
	s = s.normalized()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := s.resolve()
	if err != nil {
		t.Fatal(err)
	}
	return &r
}

// runPoint runs one (policy, load) point of the scenario on cal, as a
// grid point does, without the calibration memo.
func runPoint(ctx context.Context, s Scenario, kind PolicyKind, load float64, cal Calibration) (sim.Result, error) {
	s.Policy, s.Load, s.Calibration = kind, load, &cal
	s = s.normalized()
	if err := s.Validate(); err != nil {
		return sim.Result{}, err
	}
	r, err := s.resolve()
	if err != nil {
		return sim.Result{}, err
	}
	return r.runOne(ctx)
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
	sat, _, err := mustResolve(t, quickScenario()).search(context.Background())
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
	sat8, _, err := mustResolve(t, s).search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Mesh.VCs = 2
	sat2, _, err := mustResolve(t, s).search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sat2 >= sat8 {
		t.Errorf("2-VC saturation %.3f not below 8-VC %.3f", sat2, sat8)
	}
}

// runPoints runs each policy once at load on the scenario, as a grid of
// points does.
func runPoints(t *testing.T, s Scenario, load float64, kinds []PolicyKind, cal Calibration) map[PolicyKind]sim.Result {
	t.Helper()
	out := make(map[PolicyKind]sim.Result, len(kinds))
	for _, kind := range kinds {
		res, err := runPoint(context.Background(), s, kind, load, cal)
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
	res := runPoints(t, quickScenario(), 0.2, AllPolicies(), goldenCal())
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
	s := Scenario{App: "h264", Quick: true}
	cal := Calibration{SaturationRate: 0.5, LambdaMax: 0.45, TargetDelayNs: 120}
	res := runPoints(t, s, 0.5, []PolicyKind{NoDVFS, RMSD}, cal)
	if res[NoDVFS].Packets == 0 {
		t.Error("app scenario measured no packets")
	}
	if res[RMSD].AvgPowerMW >= res[NoDVFS].AvgPowerMW {
		t.Error("RMSD power not below No-DVFS on app traffic")
	}
}

// TestOfferedRateMatchesInjector: the calibration's λmax and the DMSD
// warm-start frequency come from offeredRate; it must return, to the last
// bit, the MeanRate of the injector the scenario would build — for a
// synthetic pattern, an application rate vector and a recorded trace.
func TestOfferedRateMatchesInjector(t *testing.T) {
	tr := NewTrace()
	capture := quickScenario()
	capture.TraceCapture = tr
	cal := Calibration{SaturationRate: 0.4, LambdaMax: 0.36, TargetDelayNs: 150}
	if _, err := runPoint(context.Background(), capture, NoDVFS, 0.17, cal); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.trace.json")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	replay := Scenario{TraceRef: path, Quick: true}

	for name, s := range map[string]Scenario{"uniform": quickScenario(), "app": {App: "h264"}, "trace": replay} {
		r := mustResolve(t, s)
		for _, load := range []float64{0.07, 0.1, 0.3, 1.0 / 3} {
			inj, err := r.injector(load, r.Seed)
			if err != nil {
				t.Fatalf("%s at %g: %v", name, load, err)
			}
			got, err := r.offeredRate(load)
			if err != nil {
				t.Fatalf("%s at %g: %v", name, load, err)
			}
			if want := inj.MeanRate(); got != want || got <= 0 {
				t.Errorf("%s at %g: offeredRate %v, injector MeanRate %v", name, load, got, want)
			}
		}
	}
}

// TestGoldenParallelMatchesSerial is the determinism contract of a grid
// of points, the way Sweep fans one out: each point seeded by exp.Seed
// from the root seed and its grid position, the same root seed must
// produce bit-identical results whether the points run serially or
// concurrently, sharing the process's fabric and injector free lists.
func TestGoldenParallelMatchesSerial(t *testing.T) {
	loads := LoadGrid(0.3, 3)
	workerSet := []int{2, 8}
	if testing.Short() {
		loads = LoadGrid(0.3, 2)
		workerSet = []int{4}
	}
	kinds := AllPolicies()
	run := func(workers int) []sim.Result {
		res, err := exp.Map(context.Background(), workers, len(kinds)*len(loads),
			func(ctx context.Context, i int) (sim.Result, error) {
				s := quickScenario()
				s.Seed = exp.Seed(1, i)
				return runPoint(ctx, s, kinds[i/len(loads)], loads[i%len(loads)], goldenCal())
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range workerSet {
		par := run(workers)
		for i := range serial {
			if !reflect.DeepEqual(serial[i], par[i]) {
				t.Errorf("workers=%d: point %d differs from serial:\nserial:   %+v\nparallel: %+v",
					workers, i, serial[i], par[i])
			}
		}
	}
}

// TestGoldenFindSaturationParallelMatchesSerial pins the quarter-section
// search: the probe layout is fixed, so the measured saturation rate must
// not depend on the worker count.
func TestGoldenFindSaturationParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := quickScenario()
	s.Workers = 1
	serial, _, err := mustResolve(t, s).search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 8
	parallel, _, err := mustResolve(t, s).search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Errorf("saturation rate depends on workers: serial %v, parallel %v", serial, parallel)
	}
}

// TestSearchCancelledMidRound: the caller's context ends while a round is
// half decided — the middle probe has reported saturated and stopped the
// one above it, the lowest is still in flight. The search's own per-probe
// cancellations must not swallow the caller's: the round fails with
// ctx.Err().
func TestSearchCancelledMidRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const guess = 0.8
	topStarted, topStopped := make(chan struct{}), make(chan struct{})
	probe := func(pctx context.Context, load float64) (bool, error) {
		switch load {
		case guess:
			return true, nil
		case 0.25 * guess: // in flight until the caller gives up
			<-pctx.Done()
			return false, pctx.Err()
		case 0.50 * guess: // reports once the top probe is there to be stopped
			<-topStarted
			return true, nil
		default: // 0.75: stopped by the middle probe, after which the caller cancels
			close(topStarted)
			<-pctx.Done()
			close(topStopped)
			return false, pctx.Err()
		}
	}
	go func() {
		<-topStopped
		cancel()
	}()
	before := runtime.NumGoroutine()
	_, st, err := searchSaturation(ctx, 3, guess, 1, probe)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.probes != 4 {
		t.Errorf("stats %+v, want the first guess and one round of three", st)
	}
	waitForGoroutines(t, before)
}

// TestFindSaturationCancelled: cancelling the caller's context while the
// search's simulations are running returns ctx.Err() promptly and leaves
// no goroutine behind.
func TestFindSaturationCancelled(t *testing.T) {
	// A loaded 8x8 search is seconds of work; 150 ms lands inside it.
	r := mustResolve(t, Scenario{Mesh: Mesh{Width: 8, Height: 8}, Pattern: "uniform", Workers: 3})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(150*time.Millisecond, cancel)

	start := time.Now()
	_, _, err := r.search(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled search returned after %v, want prompt return", d)
	}
	waitForGoroutines(t, before)
}
