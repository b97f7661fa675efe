package traffic

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/trace"
)

func TestSourceConfigValidate(t *testing.T) {
	ok := []SourceConfig{
		{},
		{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 64},
		{Kind: SourcePareto, BurstRatio: 2, BurstLen: 10, ParetoAlpha: 1.5},
		{Kind: SourcePareto, BurstRatio: 8, BurstLen: 1, ParetoAlpha: 2},
	}
	for _, c := range ok {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	bad := []SourceConfig{
		{Kind: "lognormal"},
		{Kind: SourceMMPP, BurstRatio: 1, BurstLen: 64},
		{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 0.5},
		{Kind: SourcePareto, BurstRatio: 4, BurstLen: 64, ParetoAlpha: 1},
		{Kind: SourcePareto, BurstRatio: 4, BurstLen: 64, ParetoAlpha: 2.5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

// burstInjector builds a uniform-pattern injector with the given source
// layered on, against a network it can inject into.
func burstInjector(t *testing.T, rate float64, src SourceConfig, seed int64) (*Injector, *noc.Network) {
	t.Helper()
	cfg := cfg5()
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(cfg, NewUniform(cfg), rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.SetSource(src); err != nil {
		t.Fatal(err)
	}
	return inj, net
}

func TestSetSourceRejects(t *testing.T) {
	cfg := cfg5()
	inj, err := NewInjector(cfg, NewUniform(cfg), 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 0.3 flits/cycle is 0.015 packets/cycle; β=4 stays under one packet
	// per cycle, but a huge ratio does not.
	if err := inj.SetSource(SourceConfig{Kind: SourceMMPP, BurstRatio: 100, BurstLen: 10}); err == nil {
		t.Error("accepted an ON rate above one packet per cycle")
	}
	if err := inj.SetSource(SourceConfig{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 10}); err != nil {
		t.Errorf("rejected a feasible source: %v", err)
	}
	if src := sourceOf(inj); src.Kind != SourceMMPP {
		t.Errorf("source = %+v", src)
	}
	if err := inj.SetSource(SourceConfig{}); err != nil {
		t.Errorf("clearing the source failed: %v", err)
	}
	if sourceOf(inj).Kind != "" {
		t.Error("zero-value source did not restore Bernoulli")
	}
}

// TestBurstSourcesPreserveMeanRate: bursty modulation redistributes
// traffic in time without changing the long-run offered rate.
func TestBurstSourcesPreserveMeanRate(t *testing.T) {
	const rate, cycles = 0.2, 400_000
	for _, src := range []SourceConfig{
		{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 50},
		{Kind: SourcePareto, BurstRatio: 4, BurstLen: 50, ParetoAlpha: 1.6},
	} {
		inj, net := burstInjector(t, rate, src, 42)
		for c := 0; c < cycles; c++ {
			inj.NodeCycle(net, 0)
		}
		got := float64(inj.WindowFlits()) / float64(cycles) / 25
		if math.Abs(got-rate) > rate*0.08 {
			t.Errorf("%s: offered rate %.4f, want %.4f ± 8%%", src.Kind, got, rate)
		}
	}
}

// TestMMPPOnFraction: the stationary ON fraction is 1/β.
func TestMMPPOnFraction(t *testing.T) {
	src := SourceConfig{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 40}
	inj, net := burstInjector(t, 0.2, src, 7)
	var sum float64
	const cycles = 100_000
	for c := 0; c < cycles; c++ {
		inj.NodeCycle(net, 0)
		sum += onFraction(inj)
	}
	got := sum / cycles
	if math.Abs(got-0.25) > 0.04 {
		t.Errorf("mean ON fraction %.3f, want 0.25 ± 0.04", got)
	}
}

// TestBurstinessExceedsPoisson: the index of dispersion of per-window
// flit counts is near 1 for Bernoulli sources and clearly above it for
// MMPP and Pareto on-off sources — the property the beyond-paper
// workloads exist to exercise.
func TestBurstinessExceedsPoisson(t *testing.T) {
	dispersion := func(src SourceConfig) float64 {
		cfg := cfg5()
		net, err := noc.NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := NewInjector(cfg, NewUniform(cfg), 0.2, 11)
		if err != nil {
			t.Fatal(err)
		}
		if src.Kind != "" {
			if err := inj.SetSource(src); err != nil {
				t.Fatal(err)
			}
		}
		const windows, window = 2000, 100
		counts := make([]float64, windows)
		for w := 0; w < windows; w++ {
			for c := 0; c < window; c++ {
				inj.NodeCycle(net, 0)
			}
			counts[w] = float64(inj.WindowFlits())
			inj.WindowReset()
		}
		var mean, varsum float64
		for _, c := range counts {
			mean += c
		}
		mean /= windows
		for _, c := range counts {
			varsum += (c - mean) * (c - mean)
		}
		// Counts are in flits; packets arrive 20 flits at a time, so even
		// Bernoulli counts have dispersion ≈ PacketSize. Normalize it out.
		return varsum / float64(windows-1) / mean / float64(cfg.PacketSize)
	}
	poisson := dispersion(SourceConfig{})
	mmpp := dispersion(SourceConfig{Kind: SourceMMPP, BurstRatio: 6, BurstLen: 60})
	pareto := dispersion(SourceConfig{Kind: SourcePareto, BurstRatio: 6, BurstLen: 60, ParetoAlpha: 1.3})
	if poisson > 1.5 {
		t.Errorf("Bernoulli dispersion %.2f, want ≈ 1", poisson)
	}
	if mmpp < 2*poisson {
		t.Errorf("MMPP dispersion %.2f not clearly above Bernoulli %.2f", mmpp, poisson)
	}
	if pareto < 2*poisson {
		t.Errorf("Pareto dispersion %.2f not clearly above Bernoulli %.2f", pareto, poisson)
	}
}

// TestBurstDeterminism: the same seed reproduces the same injection
// stream, and different seeds do not.
func TestBurstDeterminism(t *testing.T) {
	capture := func(seed int64) []trace.InjectionEvent {
		src := SourceConfig{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 30}
		inj, net := burstInjector(t, 0.2, src, seed)
		var sink trace.Injection
		inj.StartCapture(&sink)
		for c := 0; c < 5000; c++ {
			inj.NodeCycle(net, 0)
		}
		return append([]trace.InjectionEvent(nil), sink.Events...)
	}
	a, b := capture(9), capture(9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different injection streams")
	}
	if c := capture(10); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical injection streams")
	}
}

// TestReplayInjectorReproducesCapture: a trace captured from a live
// injector replays the exact event stream and exposes the trace's rates.
func TestReplayInjectorReproducesCapture(t *testing.T) {
	cfg := cfg5()
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(cfg, NewUniform(cfg), 0.25, 13)
	if err != nil {
		t.Fatal(err)
	}
	var tr trace.Injection
	inj.StartCapture(&tr)
	const cycles = 3000
	for c := 0; c < cycles; c++ {
		inj.NodeCycle(net, 0)
	}
	if tr.Cycles != cycles || len(tr.Events) == 0 {
		t.Fatalf("capture recorded %d events over %d cycles", len(tr.Events), tr.Cycles)
	}
	if err := tr.Validate(cfg); err != nil {
		t.Fatalf("captured trace invalid: %v", err)
	}

	rnet, err := noc.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rinj, err := NewReplayInjector(cfg, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if rinj.replay == nil {
		t.Error("replay injector has no replay state")
	}
	for c := 0; c < cycles; c++ {
		rinj.NodeCycle(rnet, 0)
	}
	q1, _, _, _ := net.Stats()
	q2, _, _, _ := rnet.Stats()
	if q1 != q2 {
		t.Errorf("replay queued %d packets, capture queued %d", q2, q1)
	}
	if got, want := rinj.MeanRate(), tr.MeanRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("replay MeanRate %g, trace MeanRate %g", got, want)
	}
	// Replay past the end of the trace injects nothing further.
	for c := 0; c < 100; c++ {
		rinj.NodeCycle(rnet, 0)
	}
	if q3, _, _, _ := rnet.Stats(); q3 != q2 {
		t.Error("replay injected past the end of the trace")
	}

	// A mismatched mesh is rejected.
	small := cfg
	small.Width = 4
	if _, err := NewReplayInjector(small, &tr); err == nil {
		t.Error("replay accepted a mismatched mesh")
	}
}
