package traffic

import (
	"math"
	"testing"

	"repro/internal/noc"
)

func TestInjectorOfferedRateMatchesTarget(t *testing.T) {
	cfg := cfg5()
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rate = 0.3
	inj, err := NewInjector(cfg, NewUniform(cfg), rate, 42)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 20000
	for c := 0; c < cycles; c++ {
		inj.NodeCycle(net, 0)
	}
	got := float64(inj.WindowFlits()) / float64(cycles) / float64(cfg.Nodes())
	if math.Abs(got-rate) > rate*0.05 {
		t.Errorf("offered rate %.4f, want %.4f ± 5%%", got, rate)
	}
}

func TestInjectorWindowReset(t *testing.T) {
	cfg := cfg5()
	net, _ := noc.NewNetwork(cfg)
	inj, err := NewInjector(cfg, NewUniform(cfg), 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 100; c++ {
		inj.NodeCycle(net, 0)
	}
	if inj.WindowFlits() == 0 {
		t.Fatal("no flits offered")
	}
	inj.WindowReset()
	if inj.WindowFlits() != 0 {
		t.Error("WindowReset did not clear the counter")
	}
}

func TestInjectorValidation(t *testing.T) {
	cfg := cfg5()
	if _, err := NewInjector(cfg, NewUniform(cfg), -0.1, 1); err == nil {
		t.Error("accepted negative rate")
	}
	if _, err := NewInjector(cfg, NewUniform(cfg), float64(cfg.PacketSize)+1, 1); err == nil {
		t.Error("accepted rate above one packet per cycle")
	}
	if _, err := NewInjectorRates(cfg, NewUniform(cfg), []float64{0.1}, 1); err == nil {
		t.Error("accepted wrong-length rate vector")
	}
	if _, err := NewInjectorRates(cfg, NewUniform(cfg), make([]float64, 25), 1); err != nil {
		t.Errorf("rejected all-zero rates: %v", err)
	}
}

func TestInjectorDeterministicAcrossRuns(t *testing.T) {
	cfg := cfg5()
	run := func() int64 {
		net, _ := noc.NewNetwork(cfg)
		inj, _ := NewInjector(cfg, NewUniform(cfg), 0.2, 99)
		for c := 0; c < 5000; c++ {
			inj.NodeCycle(net, 0)
		}
		return inj.WindowFlits()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced %d then %d flits", a, b)
	}
}

func TestInjectorMeanRate(t *testing.T) {
	cfg := cfg5()
	rates := make([]float64, 25)
	rates[0], rates[1] = 0.5, 0.25
	inj, err := NewInjectorRates(cfg, NewUniform(cfg), rates, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inj.MeanRate(), 0.75/25; math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanRate = %g, want %g", got, want)
	}
}

func TestInjectorPerNodeRates(t *testing.T) {
	cfg := cfg5()
	cfg.PacketSize = 1 // one flit per packet: flits == packets
	rates := make([]float64, 25)
	rates[3] = 0.4
	net, _ := noc.NewNetwork(cfg)
	inj, err := NewInjectorRates(cfg, NewUniform(cfg), rates, 11)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 20000
	for c := 0; c < cycles; c++ {
		inj.NodeCycle(net, 0)
	}
	got := float64(inj.WindowFlits()) / cycles
	if math.Abs(got-0.4) > 0.05 {
		t.Errorf("node-3-only injector offered %.3f flits/cycle, want 0.4", got)
	}
}

func TestMatrixPatternDistribution(t *testing.T) {
	cfg := cfg5()
	w := make([][]float64, 25)
	for i := range w {
		w[i] = make([]float64, 25)
	}
	w[0][1] = 3
	w[0][2] = 1
	mp, err := NewMatrixPattern("test", cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Name() != "test" {
		t.Errorf("Name() = %q", mp.Name())
	}
	rng := newTestRand(6)
	n1, n2 := 0, 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		switch mp.Dest(0, rng) {
		case 1:
			n1++
		case 2:
			n2++
		default:
			t.Fatal("unexpected destination")
		}
	}
	if ratio := float64(n1) / float64(n2); math.Abs(ratio-3) > 0.3 {
		t.Errorf("destination ratio %.2f, want ~3", ratio)
	}
}

func TestMatrixPatternValidation(t *testing.T) {
	cfg := cfg5()
	mk := func() [][]float64 {
		w := make([][]float64, 25)
		for i := range w {
			w[i] = make([]float64, 25)
		}
		return w
	}
	w := mk()
	w[0][0] = 1
	if _, err := NewMatrixPattern("x", cfg, w); err == nil {
		t.Error("accepted self traffic")
	}
	w = mk()
	w[1][2] = -1
	if _, err := NewMatrixPattern("x", cfg, w); err == nil {
		t.Error("accepted negative weight")
	}
	if _, err := NewMatrixPattern("x", cfg, mk()[:10]); err == nil {
		t.Error("accepted short matrix")
	}
	w = mk()
	w[0] = w[0][:10]
	if _, err := NewMatrixPattern("x", cfg, w); err == nil {
		t.Error("accepted short row")
	}
}

func TestMatrixPatternSilentSourcePanics(t *testing.T) {
	cfg := cfg5()
	w := make([][]float64, 25)
	for i := range w {
		w[i] = make([]float64, 25)
	}
	w[0][1] = 1
	mp, err := NewMatrixPattern("x", cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dest for silent source did not panic")
		}
	}()
	mp.Dest(5, newTestRand(1))
}

func TestRowRates(t *testing.T) {
	w := [][]float64{
		{0, 2, 2}, // sum 4
		{1, 0, 1}, // sum 2
		{0, 0, 0}, // silent
	}
	rates, err := RowRates(w)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 0}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-12 {
			t.Errorf("rates[%d] = %g, want %g", i, rates[i], want[i])
		}
	}
}

func TestRowRatesNegative(t *testing.T) {
	if _, err := RowRates([][]float64{{0, -1}}); err == nil {
		t.Error("accepted negative weight")
	}
}

func TestRowRatesAllZero(t *testing.T) {
	rates, err := RowRates([][]float64{{0, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rates {
		if r != 0 {
			t.Error("all-zero matrix should give zero rates")
		}
	}
}
