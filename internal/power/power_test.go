package power

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/noc"
)

func TestDefaultModelValid(t *testing.T) {
	if err := Default28nm().Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	m := Default28nm()
	m.VNom = 0
	if err := m.Validate(); err == nil {
		t.Error("accepted zero nominal voltage")
	}
	m = Default28nm()
	m.EXbar = -1
	if err := m.Validate(); err == nil {
		t.Error("accepted negative energy")
	}
	m = Default28nm()
	m.LeakExp = 9
	if err := m.Validate(); err == nil {
		t.Error("accepted huge leakage exponent")
	}
}

func TestActivityEnergyScalesWithVSquared(t *testing.T) {
	m := Default28nm()
	a := noc.RouterActivity{BufWrites: 1000, BufReads: 1000, XbarTraversals: 1000, LinkFlits: 500}
	eFull := m.ActivityEnergy(a, 0.9)
	eHalfV := m.ActivityEnergy(a, 0.45)
	if got, want := eHalfV/eFull, 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("V/2 energy ratio = %g, want 0.25", got)
	}
}

func TestActivityEnergyLinearInCountsQuick(t *testing.T) {
	m := Default28nm()
	f := func(w, r uint16) bool {
		a := noc.RouterActivity{BufWrites: int64(w), BufReads: int64(r)}
		b := noc.RouterActivity{BufWrites: 2 * int64(w), BufReads: 2 * int64(r)}
		ea := m.ActivityEnergy(a, 0.9)
		eb := m.ActivityEnergy(b, 0.9)
		return math.Abs(eb-2*ea) < 1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockEnergyScalesWithVSquaredAndCycles(t *testing.T) {
	m := Default28nm()
	e1 := m.ClockEnergy(25, 1000, 0.9)
	e2 := m.ClockEnergy(25, 2000, 0.9)
	if math.Abs(e2-2*e1) > 1e-18 {
		t.Error("clock energy not linear in cycles")
	}
	e3 := m.ClockEnergy(25, 1000, 0.45)
	if got := e3 / e1; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("clock V scaling = %g, want 0.25", got)
	}
	// At fixed wall time, halving F halves cycles, so clock *power*
	// scales with V²F as required.
}

func TestLeakageScaling(t *testing.T) {
	m := Default28nm()
	pFull := m.LeakagePower(25, 0.9)
	if math.Abs(pFull-25*0.5e-3) > 1e-12 {
		t.Errorf("leakage at VNom = %g, want 12.5 mW", pFull)
	}
	pLow := m.LeakagePower(25, 0.56)
	want := pFull * math.Pow(0.56/0.9, 3)
	if math.Abs(pLow-want) > 1e-12 {
		t.Errorf("leakage at 0.56 V = %g, want %g", pLow, want)
	}
	// Non-default exponent path.
	m.LeakExp = 2
	p2 := m.LeakagePower(25, 0.45)
	if math.Abs(p2-pFull*0.25) > 1e-12 {
		t.Errorf("quadratic leakage = %g, want %g", p2, pFull*0.25)
	}
}

// sliceMW prices one constant-(f, v) segment, activity a over cycles
// network cycles on routers routers, and returns its average switching,
// clock and leakage power in milliwatts.
func sliceMW(m Model, a noc.RouterActivity, routers int, cycles int64, f, v float64) (sw, ck, lk float64) {
	_, sw, ck, lk = m.WindowMW(routers, []Segment{{Act: a, Cycles: cycles, V: v, F: f}}, 0)
	return sw, ck, lk
}

func totalMW(sw, ck, lk float64) float64 { return sw + ck + lk }

func TestCalibrationIdlePower(t *testing.T) {
	// At zero load the 5x5 network burns only clock + leakage. The paper's
	// Fig. 6 No-DVFS curve starts around 50 mW.
	m := Default28nm()
	idleMW := totalMW(sliceMW(m, noc.RouterActivity{}, 25, 1_000_000, 1e9, 0.9))
	if idleMW < 35 || idleMW > 65 {
		t.Errorf("idle power = %.1f mW, want ~50 mW", idleMW)
	}
}

func TestCalibrationLoadedPower(t *testing.T) {
	// Synthetic activity for uniform 0.4 flits/node/cycle on 5x5 over 1M
	// cycles: 10M flits injected, average 3.2 hops => 4.2 routers
	// traversed, 3.2 links. The paper's Fig. 6 No-DVFS curve reaches
	// ~230 mW at 0.4.
	m := Default28nm()
	const cycles = 1_000_000
	flits := int64(0.4 * 25 * cycles)
	perRouterVisits := 4.2
	a := noc.RouterActivity{
		BufWrites:      int64(float64(flits) * perRouterVisits),
		BufReads:       int64(float64(flits) * perRouterVisits),
		XbarTraversals: int64(float64(flits) * perRouterVisits),
		SAAllocs:       int64(float64(flits) * perRouterVisits),
		VCAllocs:       int64(float64(flits) * perRouterVisits / 20), // per packet
		LinkFlits:      int64(float64(flits) * 3.2),
		InjectFlits:    flits,
		EjectFlits:     flits,
	}
	if mw := totalMW(sliceMW(m, a, 25, cycles, 1e9, 0.9)); mw < 180 || mw > 280 {
		t.Errorf("0.4-load power = %.1f mW, want ~230 mW (Fig. 6 envelope)", mw)
	}
}

func TestDVFSPowerRatioMatchesPaper(t *testing.T) {
	// The paper reports ~2.2x power reduction of RMSD vs No-DVFS at 0.2
	// injection rate (Fig. 6). Reproduce the arithmetic with the model:
	// same activity per unit time, but RMSD runs at F=529 MHz, V=0.66 V.
	m := Default28nm()
	const cycles = 1_000_000
	flits := int64(0.2 * 25 * cycles)
	mk := func(scale float64) noc.RouterActivity {
		return noc.RouterActivity{
			BufWrites:      int64(float64(flits) * 4.2 * scale),
			BufReads:       int64(float64(flits) * 4.2 * scale),
			XbarTraversals: int64(float64(flits) * 4.2 * scale),
			SAAllocs:       int64(float64(flits) * 4.2 * scale),
			LinkFlits:      int64(float64(flits) * 3.2 * scale),
			InjectFlits:    int64(float64(flits) * scale),
			EjectFlits:     int64(float64(flits) * scale),
		}
	}
	full := totalMW(sliceMW(m, mk(1), 25, cycles, 1e9, 0.9))
	// RMSD at the same wall time: fewer cycles at 529 MHz, same flits.
	fR := 529e6
	cyclesR := int64(float64(cycles) * fR / 1e9)
	rmsd := totalMW(sliceMW(m, mk(1), 25, cyclesR, fR, 0.66))
	if ratio := full / rmsd; ratio < 1.7 || ratio > 2.8 {
		t.Errorf("No-DVFS/RMSD power ratio = %.2f, paper reports ~2.2", ratio)
	}
}

func TestSteadyStateZeroCycles(t *testing.T) {
	// A segment of no cycles and no time adds nothing, wherever it sits.
	m := Default28nm()
	a := noc.RouterActivity{BufWrites: 1000, BufReads: 1000, XbarTraversals: 1000}
	segs := []Segment{{Act: a, Cycles: 10000, V: 0.9, F: 1e9}, {Act: a, Cycles: 20000, V: 0.7, F: 6e8}}
	zero := Segment{V: 0.56, F: 3e8}
	for from := 0; from <= len(segs); from++ {
		for at := 0; at <= len(segs); at++ {
			with := slices.Insert(slices.Clone(segs), at, zero)
			wFrom := from
			if at < from {
				wFrom++
			}
			t1, s1, c1, l1 := m.WindowMW(25, segs, from)
			t2, s2, c2, l2 := m.WindowMW(25, with, wFrom)
			if t1 != t2 || s1 != s2 || c1 != c2 || l1 != l2 {
				t.Errorf("window from %d, zero segment at %d: %g %g %g %g, want %g %g %g %g", from, at, t2, s2, c2, l2, t1, s1, c1, l1)
			}
		}
	}
}

func TestWindowMW(t *testing.T) {
	m := Default28nm()
	a := noc.RouterActivity{BufWrites: 1000, BufReads: 1000, XbarTraversals: 1000}
	warm := Segment{Act: a, Cycles: 5000, V: 0.75, F: 5e8}
	segs := []Segment{warm, {Act: a, Cycles: 10000, V: 0.9, F: 1e9}, {Act: a, Cycles: 10000, V: 0.56, F: 1e9 / 3}}
	total, sw, ck, lk := m.WindowMW(25, segs, 1)
	const window = 40e-6 // 10 µs at 1 GHz, then 30 µs at 333 MHz
	wantSw := (m.ActivityEnergy(a, 0.9) + m.ActivityEnergy(a, 0.56)) / window * 1e3
	wantCk := (m.ClockEnergy(25, 10000, 0.9) + m.ClockEnergy(25, 10000, 0.56)) / window * 1e3
	wantLk := (m.LeakagePower(25, 0.9)*10e-6 + m.LeakagePower(25, 0.56)*30e-6) / window * 1e3
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"total", total, wantSw + wantCk + wantLk},
		{"switching", sw, wantSw}, {"clock", ck, wantCk}, {"leakage", lk, wantLk},
	} {
		if math.Abs(c.got-c.want)/c.want > 1e-9 {
			t.Errorf("%s = %g mW, want %g", c.name, c.got, c.want)
		}
	}
}

// refIntegrator is the accumulation the engine ran while it stepped before
// energy was priced after the run: one Slice per closed segment, with the
// sums snapshotted when the measurement window opened. WindowMW must
// reproduce its window averages bit for bit.
type refIntegrator struct {
	model   Model
	routers int

	energyJ, timeS         float64
	switchJ, clockJ, leakJ float64
}

func (i *refIntegrator) Slice(a noc.RouterActivity, cycles int64, v, seconds float64) {
	sw := i.model.ActivityEnergy(a, v)
	ck := i.model.ClockEnergy(i.routers, cycles, v)
	lk := i.model.LeakagePower(i.routers, v) * seconds
	i.switchJ += sw
	i.clockJ += ck
	i.leakJ += lk
	i.energyJ += sw + ck + lk
	i.timeS += seconds
}

// refWindowMW prices segs[from:] the way the engine did with the
// integrator: the sums are snapshotted when the window opens, before
// segment from, and subtracted at the end.
func refWindowMW(m Model, routers int, segs []Segment, from int) (total, sw, ck, lk float64) {
	in := &refIntegrator{model: m, routers: routers}
	var start refIntegrator
	for i, s := range segs {
		if i == from {
			start = *in
		}
		in.Slice(s.Act, s.Cycles, s.V, float64(s.Cycles)/s.F)
	}
	if from == len(segs) {
		start = *in
	}
	if dt := in.timeS - start.timeS; dt > 0 {
		total = (in.energyJ - start.energyJ) / dt * 1e3
		sw = (in.switchJ - start.switchJ) / dt * 1e3
		ck = (in.clockJ - start.clockJ) / dt * 1e3
		lk = (in.leakJ - start.leakJ) / dt * 1e3
	}
	return total, sw, ck, lk
}

// TestWindowMWMatchesIntegrator: for random runs of 0–200 segments, the
// window opening anywhere, V in [0.56, 0.9] and up to 1e5 cycles a
// segment, WindowMW equals the step-time accumulation bit for bit.
func TestWindowMWMatchesIntegrator(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	m := Default28nm()
	cases := 2000
	if testing.Short() {
		cases = 200
	}
	for c := 0; c < cases; c++ {
		segs := make([]Segment, rng.Intn(201))
		for i := range segs {
			cycles := 1 + rng.Int63n(100_000)
			act := func(perCycle int64) int64 { return rng.Int63n(cycles*perCycle + 1) }
			segs[i] = Segment{
				Act: noc.RouterActivity{
					BufWrites: act(100), BufReads: act(100), XbarTraversals: act(100),
					VCAllocs: act(5), SAAllocs: act(100), LinkFlits: act(80),
					EjectFlits: act(25), InjectFlits: act(25),
				},
				Cycles: cycles,
				V:      0.56 + (0.9-0.56)*rng.Float64(),
				F:      1e8 + 9e8*rng.Float64(),
			}
		}
		routers := 1 + rng.Intn(64)
		from := rng.Intn(len(segs) + 1)
		t1, s1, c1, l1 := m.WindowMW(routers, segs, from)
		t2, s2, c2, l2 := refWindowMW(m, routers, segs, from)
		if t1 != t2 || s1 != s2 || c1 != c2 || l1 != l2 {
			t.Fatalf("case %d (%d segments, window from %d): got %v %v %v %v, integrator %v %v %v %v",
				c, len(segs), from, t1, s1, c1, l1, t2, s2, c2, l2)
		}
	}
}

// TestEmptyWindowPricesZero: a run that measured no segments, because its
// window opened as it ended or because it aborted before the window
// opened, reports no power.
func TestEmptyWindowPricesZero(t *testing.T) {
	m := Default28nm()
	a := noc.RouterActivity{BufWrites: 1000, BufReads: 1000, XbarTraversals: 1000}
	warmup := []Segment{{Act: a, Cycles: 10000, V: 0.9, F: 1e9}, {Act: a, Cycles: 10000, V: 0.7, F: 6e8}}
	for _, c := range []struct {
		name string
		segs []Segment
	}{
		{"no segments", nil},
		{"aborted before its window", warmup},
	} {
		if total, sw, ck, lk := m.WindowMW(25, c.segs, len(c.segs)); total != 0 || sw != 0 || ck != 0 || lk != 0 {
			t.Errorf("%s: %g mW (%g + %g + %g), want 0", c.name, total, sw, ck, lk)
		}
	}
}

func TestLowerVoltageNeverRaisesPower(t *testing.T) {
	m := Default28nm()
	a := noc.RouterActivity{BufWrites: 5000, BufReads: 5000, XbarTraversals: 5000, LinkFlits: 2500}
	f := func(rawV uint16) bool {
		v := 0.56 + (0.9-0.56)*float64(rawV)/65535
		lower := m.ActivityEnergy(a, v) + m.LeakagePower(25, v)
		upper := m.ActivityEnergy(a, 0.9) + m.LeakagePower(25, 0.9)
		return lower <= upper+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
