package power

import (
	"math"
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
// network cycles on routers routers, through the integrator as the
// engine does each control period, and returns its average switching,
// clock and leakage power in milliwatts.
func sliceMW(t *testing.T, m Model, a noc.RouterActivity, routers int, cycles int64, f, v float64) (sw, ck, lk float64) {
	t.Helper()
	in, err := NewIntegrator(m, routers)
	if err != nil {
		t.Fatal(err)
	}
	seconds := float64(cycles) / f
	in.Slice(a, cycles, v, seconds)
	s, c, l := in.Components()
	return s / seconds * 1e3, c / seconds * 1e3, l / seconds * 1e3
}

func totalMW(sw, ck, lk float64) float64 { return sw + ck + lk }

func TestCalibrationIdlePower(t *testing.T) {
	// At zero load the 5x5 network burns only clock + leakage. The paper's
	// Fig. 6 No-DVFS curve starts around 50 mW.
	m := Default28nm()
	idleMW := totalMW(sliceMW(t, m, noc.RouterActivity{}, 25, 1_000_000, 1e9, 0.9))
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
	if mw := totalMW(sliceMW(t, m, a, 25, cycles, 1e9, 0.9)); mw < 180 || mw > 280 {
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
	full := totalMW(sliceMW(t, m, mk(1), 25, cycles, 1e9, 0.9))
	// RMSD at the same wall time: fewer cycles at 529 MHz, same flits.
	fR := 529e6
	cyclesR := int64(float64(cycles) * fR / 1e9)
	rmsd := totalMW(sliceMW(t, m, mk(1), 25, cyclesR, fR, 0.66))
	if ratio := full / rmsd; ratio < 1.7 || ratio > 2.8 {
		t.Errorf("No-DVFS/RMSD power ratio = %.2f, paper reports ~2.2", ratio)
	}
}

func TestSteadyStateZeroCycles(t *testing.T) {
	// A segment of no cycles and no time adds nothing: the engine closes
	// one at every frequency change, however short.
	in, err := NewIntegrator(Default28nm(), 25)
	if err != nil {
		t.Fatal(err)
	}
	in.Slice(noc.RouterActivity{}, 0, 0.9, 0)
	sw, ck, lk := in.Components()
	if in.EnergyJ() != 0 || in.TimeS() != 0 || sw != 0 || ck != 0 || lk != 0 {
		t.Errorf("zero-cycle slice added energy %g J over %g s", in.EnergyJ(), in.TimeS())
	}
}

func TestIntegrator(t *testing.T) {
	m := Default28nm()
	in, err := NewIntegrator(m, 25)
	if err != nil {
		t.Fatal(err)
	}
	if in.EnergyJ() != 0 || in.TimeS() != 0 {
		t.Error("fresh integrator has accounted energy")
	}
	a := noc.RouterActivity{BufWrites: 1000, BufReads: 1000, XbarTraversals: 1000}
	in.Slice(a, 10000, 0.9, 10e-6)
	in.Slice(a, 10000, 0.56, 30e-6)
	if in.TimeS() != 40e-6 {
		t.Errorf("TimeS = %g, want 40 µs", in.TimeS())
	}
	wantE := m.ActivityEnergy(a, 0.9) + m.ClockEnergy(25, 10000, 0.9) + m.LeakagePower(25, 0.9)*10e-6 +
		m.ActivityEnergy(a, 0.56) + m.ClockEnergy(25, 10000, 0.56) + m.LeakagePower(25, 0.56)*30e-6
	if math.Abs(in.EnergyJ()-wantE)/wantE > 1e-12 {
		t.Errorf("EnergyJ = %g, want %g", in.EnergyJ(), wantE)
	}
	sw, ck, lk := in.Components()
	if got := sw + ck + lk; math.Abs(got-wantE)/wantE > 1e-12 {
		t.Errorf("components sum to %g J, want %g", got, wantE)
	}
}

func TestNewIntegratorValidation(t *testing.T) {
	if _, err := NewIntegrator(Default28nm(), 0); err == nil {
		t.Error("accepted zero routers")
	}
	bad := Default28nm()
	bad.VNom = -1
	if _, err := NewIntegrator(bad, 25); err == nil {
		t.Error("accepted invalid model")
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
