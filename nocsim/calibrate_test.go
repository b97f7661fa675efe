package nocsim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exp"
)

// Fields of Scenario zeroed out of the calibration key, each with the
// reason it cannot reach a calibration run. The second list applies to
// the search key only.
var (
	calKeyDeny = map[string]string{
		"Load":        "calibration runs choose their own loads: the search's probes and 0.9 x saturation for the reference run",
		"Policy":      "every calibration run is No-DVFS at the node clock",
		"Calibration": "it is the output: Calibrate ignores an attached one and computes afresh",
		"Workers":     "the determinism contract: results are identical for every worker count",
	}
	searchKeyDeny = map[string]string{
		"ControlPeriod": "the search clears it: probes set their own windows and No-DVFS never actuates",
		"Transient":     "the search clears it: probes set their own windows and read no trace",
	}
)

// TestCalibrationKeyCoversEveryField walks Scenario's exported fields by
// reflection. Starting from a scenario with every field set, zeroing a
// field, or changing any leaf value under it, must change the key —
// unless the field is on the deny-list above, in which case it must not.
// A field added to Scenario later therefore lands in the key unless
// someone adds it here with an argument for why it cannot matter.
func TestCalibrationKeyCoversEveryField(t *testing.T) {
	full := Scenario{
		Mesh:          Mesh{Width: 6, Height: 7, VCs: 3, BufDepth: 5, PacketSize: 9, Routing: RoutingYX},
		Pattern:       "tornado",
		App:           "h264",
		PeakRate:      0.3,
		TraceRef:      "run.trace.json",
		Source:        &SourceSpec{Kind: SourcePareto, BurstRatio: 3, BurstLen: 50, ParetoAlpha: 1.3},
		FaultyLinks:   []string{"6>7"},
		Islands:       []Island{{X0: 1, Y0: 1, X1: 2, Y1: 2, Speed: 0.5}},
		Load:          0.2,
		Policy:        RMSD,
		Calibration:   &Calibration{SaturationRate: 0.4, LambdaMax: 0.36, TargetDelayNs: 150},
		FNodeHz:       1e9,
		FMinHz:        3e8,
		FMaxHz:        9e8,
		ControlPeriod: 5000,
		KI:            0.01,
		KP:            0.02,
		FreqLevels:    4,
		Transient:     true,
		Seed:          7,
		Quick:         true,
		Workers:       3,
	}
	for _, search := range []bool{false, true} {
		base, err := calibrationKey(full, search)
		if err != nil {
			t.Fatal(err)
		}
		rt := reflect.TypeOf(full)
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if f.Tag.Get("json") == "-" {
				continue // runtime attachments bypass the memo: Scenario.observed
			}
			if reflect.ValueOf(full).Field(i).IsZero() {
				t.Errorf("%s: the test's scenario leaves it zero, so it is not covered; set it", f.Name)
				continue
			}
			_, denied := calKeyDeny[f.Name]
			if _, d := searchKeyDeny[f.Name]; d && search {
				denied = true
			}
			for _, m := range mutations(full, i) {
				key, err := calibrationKey(m.s, search)
				if err != nil {
					t.Fatal(err)
				}
				if changed := key != base; changed == denied {
					t.Errorf("search=%v: %s (%s): key changed = %v, want %v — a field either reaches a calibration run and is in the key, or is on the deny-list with a reason",
						search, f.Name, m.what, changed, !denied)
				}
			}
		}
	}
}

type mutation struct {
	what string
	s    Scenario
}

// mutations returns copies of s that differ from it in field i only: one
// with the field zeroed, and one per leaf value under it changed.
func mutations(s Scenario, i int) []mutation {
	name := reflect.TypeOf(s).Field(i).Name
	zeroed := s
	zf := reflect.ValueOf(&zeroed).Elem().Field(i)
	zf.Set(reflect.Zero(zf.Type()))
	out := []mutation{{"zeroed", zeroed}}

	// Count the leaves once, then build one deep copy per leaf with that
	// leaf changed.
	n := 0
	visitLeaves(reflect.ValueOf(&s).Elem().Field(i), name, func(reflect.Value, string) { n++ })
	for k := 0; k < n; k++ {
		c := deepCopy(s)
		j := 0
		visitLeaves(reflect.ValueOf(&c).Elem().Field(i), name, func(v reflect.Value, path string) {
			if j == k {
				switch v.Kind() {
				case reflect.String:
					v.SetString(v.String() + "x")
				case reflect.Int, reflect.Int64:
					v.SetInt(v.Int() + 1)
				case reflect.Float64:
					v.SetFloat(v.Float() + 1)
				case reflect.Bool:
					v.SetBool(!v.Bool())
				default:
					panic("unhandled leaf kind " + v.Kind().String() + " at " + path)
				}
				out = append(out, mutation{path + " changed", c})
			}
			j++
		})
	}
	return out
}

func visitLeaves(v reflect.Value, path string, fn func(reflect.Value, string)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			visitLeaves(v.Elem(), path, fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			visitLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			visitLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	default:
		fn(v, path)
	}
}

// deepCopy clones the scenario's pointers and slices so a mutation of the
// copy never reaches the original.
func deepCopy(s Scenario) Scenario {
	if s.Source != nil {
		sp := *s.Source
		s.Source = &sp
	}
	if s.Calibration != nil {
		c := *s.Calibration
		s.Calibration = &c
	}
	s.FaultyLinks = append([]string(nil), s.FaultyLinks...)
	s.Islands = append([]Island(nil), s.Islands...)
	return s
}

// referenceCalibration is the unmemoized reference: the recipe's search
// and calibration run called directly, past the memo.
func referenceCalibration(t *testing.T, s Scenario) Calibration {
	t.Helper()
	r := mustResolve(t, s)
	rate, _, err := r.search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cal, err := r.calibrateAt(context.Background(), rate)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// TestCalibrateMatchesReference: the memoized Calibrate returns the
// unmemoized recipe's numbers bit for bit — computed, and again reused —
// across the fabric and traffic families, with quick and full windows.
func TestCalibrateMatchesReference(t *testing.T) {
	cases := map[string]Scenario{
		"h264": {App: "h264"},
	}
	if !testing.Short() {
		cases["5x5 uniform"] = Scenario{}
		cases["4x4 transpose"] = Scenario{Mesh: Mesh{Width: 4, Height: 4}, Pattern: "transpose"}
		cases["vce"] = Scenario{App: "vce"}
		cases["faulty links"] = Scenario{FaultyLinks: []string{"6>7", "7>6", "16>17"}}
		cases["island"] = Scenario{Islands: []Island{{X0: 0, Y0: 0, X1: 2, Y1: 2, Speed: 0.5}}}
		cases["mmpp"] = Scenario{Source: &SourceSpec{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 64}}
	}
	for name, c := range cases {
		for _, quick := range []bool{true, false} {
			s := c
			s.Seed, s.Quick = 3, quick
			want := referenceCalibration(t, s)
			for _, pass := range []string{"first call", "repeat"} {
				got, err := Calibrate(context.Background(), s)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s quick=%v, %s: %+v, the reference gives %+v", name, quick, pass, got, want)
				}
			}
		}
	}
}

// calStatsDelta returns CalibrationStats as a slice and a function that
// reports how far the counters moved since.
func calStatsDelta() func() [4]int64 {
	var before [4]int64
	before[0], before[1], before[2], before[3] = CalibrationStats()
	return func() [4]int64 {
		var now [4]int64
		now[0], now[1], now[2], now[3] = CalibrationStats()
		for i := range now {
			now[i] -= before[i]
		}
		return now
	}
}

// freshSeed hands every cheapFabric a seed of its own, also across the
// repetitions of go test -count.
var freshSeed atomic.Int64

// cheapFabric is a small mesh whose calibration takes a fraction of a
// second, with a seed nothing else in the process has used, so its keys
// start out unknown to the memo.
func cheapFabric() Scenario {
	seed := 9000 + freshSeed.Add(1)
	return Scenario{Mesh: Mesh{Width: 3, Height: 3, VCs: 2}, Quick: true, Seed: seed}.Normalized()
}

// TestCalibrateSingleFlight: many goroutines calibrating one scenario at
// once run one saturation search and one reference run between them —
// counted in exp jobs, against what a single unmemoized calibration
// schedules — and all get the same numbers.
func TestCalibrateSingleFlight(t *testing.T) {
	s := cheapFabric()
	sched0, _ := exp.Stats()
	want := referenceCalibration(t, s)
	sched1, _ := exp.Stats()
	oneSearch := sched1 - sched0

	delta := calStatsDelta()
	const callers = 8
	var wg sync.WaitGroup
	got := make([]Calibration, callers)
	errs := make([]error, callers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Policy, load and worker count are not part of the key.
			c := s
			c.Workers, c.Load, c.Policy = 1+i%3, 0.05*float64(i+1), AllPolicies()[i%3]
			got[i], errs[i] = Calibrate(context.Background(), c)
		}()
	}
	wg.Wait()
	sched2, _ := exp.Stats()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Errorf("caller %d: %+v, want %+v", i, got[i], want)
		}
	}
	if sched2-sched1 != oneSearch {
		t.Errorf("%d callers scheduled %d exp jobs, one search schedules %d", callers, sched2-sched1, oneSearch)
	}
	if d := delta(); d[0] != 1 || d[1] != 0 || d[2] != callers-1 {
		t.Errorf("stats moved by %v, want 1 search run, 0 searches reused, %d calibrations reused", d, callers-1)
	}
}

// TestSearchSharedAcrossControllerFields: a scenario that differs from a
// calibrated one only in controller fields runs its own reference point
// but not its own search, and FindSaturation is answered from the same
// entry.
func TestSearchSharedAcrossControllerFields(t *testing.T) {
	base := cheapFabric()
	delta := calStatsDelta()
	cal, err := Calibrate(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	pi := base
	pi.Transient, pi.ControlPeriod, pi.Policy = true, 10000, DMSD
	piCal, err := Calibrate(context.Background(), pi)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := FindSaturation(context.Background(), pi)
	if err != nil {
		t.Fatal(err)
	}
	if piCal.SaturationRate != cal.SaturationRate || rate != cal.SaturationRate {
		t.Errorf("saturation %v (calibrate) / %v (search) with controller fields set, %v without",
			piCal.SaturationRate, rate, cal.SaturationRate)
	}
	if want := referenceCalibration(t, pi); piCal != want {
		t.Errorf("transient calibration %+v, the reference gives %+v", piCal, want)
	}
	if d := delta(); d[0] != 1 || d[1] != 2 || d[2] != 0 {
		t.Errorf("stats moved by %v, want 1 search run, 2 searches reused, 0 calibrations reused", d)
	}
}

// TestObservedScenariosBypassMemo: with a packet log attached the
// calibration runs write into it, so every call has to run them.
func TestObservedScenariosBypassMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs two saturation searches")
	}
	s := cheapFabric()
	s.PacketLog = NewPacketLog(1 << 10)
	delta := calStatsDelta()
	for range 2 {
		if _, err := Calibrate(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	if d := delta(); d[0] != 2 || d[1] != 0 || d[2] != 0 {
		t.Errorf("stats moved by %v, want 2 searches run and nothing reused", d)
	}
}

// TestCancelledLeaderLeavesNoEntry drives the two real levels end to end:
// the first caller is cancelled inside its search, a second caller with a
// live context is waiting on it, and must come back with a real
// calibration — the reference's — not the leader's context.Canceled.
func TestCancelledLeaderLeavesNoEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs two saturation searches")
	}
	s := cheapFabric()
	want := referenceCalibration(t, s)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := Calibrate(leaderCtx, s)
		leaderErr <- err
	}()
	// The leader has published its entry once a search is counted.
	searches0, _, _, _ := CalibrationStats()
	for {
		if n, _, _, _ := CalibrationStats(); n > searches0 {
			break
		}
		select {
		case err := <-leaderErr:
			t.Fatalf("leader returned before it was cancelled: %v", err)
		default:
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	got := make([]Calibration, 4)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Calibrate(context.Background(), s)
		}()
	}
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want context.Canceled", err)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Errorf("waiter %d inherited the leader's fate: %v", i, errs[i])
		} else if got[i] != want {
			t.Errorf("waiter %d: %+v, want %+v", i, got[i], want)
		}
	}
}

// TestMemo exercises the single-flight map on its own, with computations
// the test controls.
func TestMemo(t *testing.T) {
	key := func(b byte) (k [32]byte) { k[0] = b; return k }
	bg := context.Background()

	t.Run("one computation for concurrent callers", func(t *testing.T) {
		var m memo[int]
		release := make(chan struct{})
		calls := 0
		fn := func(context.Context) (int, error) { calls++; <-release; return 42, nil }
		var wg sync.WaitGroup
		reusedN := 0
		var mu sync.Mutex
		for range 16 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, reused, err := m.do(bg, key(1), fn)
				if v != 42 || err != nil {
					t.Errorf("got %d, %v", v, err)
				}
				mu.Lock()
				defer mu.Unlock()
				if reused {
					reusedN++
				}
			}()
		}
		close(release)
		wg.Wait()
		// calls is written only by whoever computed: one goroutine, or the
		// race detector says otherwise.
		if calls != 1 || reusedN != 15 {
			t.Errorf("%d computations, %d reused; want 1 and 15", calls, reusedN)
		}
	})

	t.Run("errors are not stored and waiters recompute", func(t *testing.T) {
		var m memo[int]
		leaderCtx, cancel := context.WithCancel(bg)
		started := make(chan struct{})
		leaderDone := make(chan error, 1)
		go func() {
			_, _, err := m.do(leaderCtx, key(2), func(ctx context.Context) (int, error) {
				close(started)
				<-ctx.Done()
				return 0, ctx.Err()
			})
			leaderDone <- err
		}()
		<-started
		waiterDone := make(chan struct{})
		var v int
		var reused bool
		var err error
		go func() {
			defer close(waiterDone)
			v, reused, err = m.do(bg, key(2), func(context.Context) (int, error) { return 7, nil })
		}()
		cancel()
		if e := <-leaderDone; !errors.Is(e, context.Canceled) {
			t.Fatalf("leader: %v, want context.Canceled", e)
		}
		<-waiterDone
		if v != 7 || reused || err != nil {
			t.Errorf("waiter got %d, reused=%v, %v; want its own 7", v, reused, err)
		}
		// The waiter's success is what the key holds now.
		if v, reused, _ := m.do(bg, key(2), nil); v != 7 || !reused {
			t.Errorf("stored %d, reused=%v; want the waiter's 7", v, reused)
		}
	})

	t.Run("a waiter's own context still ends its wait", func(t *testing.T) {
		var m memo[int]
		started, release := make(chan struct{}), make(chan struct{})
		go m.do(bg, key(3), func(context.Context) (int, error) { close(started); <-release; return 1, nil })
		<-started
		ctx, cancel := context.WithCancel(bg)
		cancel()
		if _, _, err := m.do(ctx, key(3), nil); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		close(release)
	})

	t.Run("bounded", func(t *testing.T) {
		var m memo[int]
		for i := 0; i < memoEntries+100; i++ {
			var k [32]byte
			k[0], k[1], k[2] = byte(i), byte(i>>8), 1
			m.do(bg, k, func(context.Context) (int, error) { return i, nil })
		}
		if n := len(m.entries); n > memoEntries {
			t.Errorf("%d entries, bound is %d", n, memoEntries)
		}
	})
}
