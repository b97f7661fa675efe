package traffic

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/noc"
	"repro/internal/trace"
)

// refInjector is the per-cycle injection model the event-driven Injector
// must reproduce draw for draw: every node cycle, every active node runs
// its on-off countdown and one `Float64() < p` trial on its own stdlib
// generator. It is the reference the schedule tests compare against, not a
// second shipped path.
type refInjector struct {
	cfg     noc.Config
	pattern Pattern
	probs   []float64
	rngs    []*rand.Rand
	o1turn  bool

	burst *SourceConfig
	on    []bool
	left  []int64

	cycle  int64
	flits  int64
	events []trace.InjectionEvent
}

func newRefInjector(cfg noc.Config, pattern Pattern, rates []float64, seed int64) *refInjector {
	r := &refInjector{
		cfg:     cfg,
		pattern: pattern,
		probs:   make([]float64, len(rates)),
		rngs:    make([]*rand.Rand, len(rates)),
		o1turn:  cfg.Routing == noc.RoutingO1TURN,
	}
	for i, rate := range rates {
		r.probs[i] = rate / float64(cfg.PacketSize)
		r.rngs[i] = rand.New(rand.NewSource(seed + int64(i)*7919))
	}
	return r
}

func (r *refInjector) setSource(src SourceConfig) {
	r.burst = &src
	r.on = make([]bool, len(r.probs))
	r.left = make([]int64, len(r.probs))
	for i, p := range r.probs {
		if p == 0 {
			continue
		}
		r.on[i] = r.rngs[i].Float64() < 1/src.BurstRatio
		r.left[i] = src.sojourn(r.on[i], r.rngs[i])
	}
}

func (r *refInjector) nodeCycle() {
	c := r.cycle
	r.cycle++
	for s, p := range r.probs {
		if p == 0 {
			continue
		}
		rng := r.rngs[s]
		if r.burst != nil {
			r.left[s]--
			if r.left[s] <= 0 {
				r.on[s] = !r.on[s]
				r.left[s] = r.burst.sojourn(r.on[s], rng)
			}
			if !r.on[s] {
				continue
			}
			p *= r.burst.BurstRatio
		}
		if rng.Float64() >= p {
			continue
		}
		src := noc.NodeID(s)
		dst := r.pattern.Dest(src, rng)
		var dim uint8
		if r.o1turn {
			dim = uint8(rng.Intn(2))
		}
		r.flits += int64(r.cfg.PacketSize)
		r.events = append(r.events, trace.InjectionEvent{Cycle: c, Src: src, Dst: dst, Dim: dim})
	}
}

func (r *refInjector) onFraction() float64 {
	if r.burst == nil {
		return 1
	}
	active, on := 0, 0
	for s, p := range r.probs {
		if p == 0 {
			continue
		}
		active++
		if r.on[s] {
			on++
		}
	}
	return float64(on) / float64(active)
}

// TestScheduleMatchesPerCycleReference: for every kind of source and
// destination draw, the event-driven injector emits the reference model's
// (cycle, src, dst, dim) stream and shows the same WindowFlits and ON
// fraction after every single cycle — 25 nodes over at least 10 000
// cycles per case, several million node cycles in all.
func TestScheduleMatchesPerCycleReference(t *testing.T) {
	cfg := cfg5()
	o1 := cfg
	o1.Routing = noc.RoutingO1TURN
	transpose, err := NewTranspose(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every node sends 30 % of its packets to node 12, the rest uniformly.
	hot := make([][]float64, cfg.Nodes())
	for s := range hot {
		hot[s] = make([]float64, cfg.Nodes())
		for d := range hot[s] {
			if d != s {
				hot[s][d] = 0.7 / float64(cfg.Nodes()-1)
			}
		}
		if s != 12 {
			hot[s][12] += 0.3
		}
	}
	hotspot, err := NewMatrixPattern("hotspot", cfg, hot)
	if err != nil {
		t.Fatal(err)
	}
	// An application-like rate vector: a few talkers at very different
	// rates, the rest silent, destinations from a weight matrix.
	weights := make([][]float64, cfg.Nodes())
	for i := range weights {
		weights[i] = make([]float64, cfg.Nodes())
	}
	weights[0][7], weights[0][24] = 3, 1
	weights[3][4] = 0.5
	weights[11][2], weights[11][12], weights[11][20] = 1, 2, 4
	weights[24][0] = 9
	app, err := NewMatrixPattern("app", cfg, weights)
	if err != nil {
		t.Fatal(err)
	}
	appRates, err := RowRates(weights)
	if err != nil {
		t.Fatal(err)
	}
	for i := range appRates {
		appRates[i] *= 0.4
	}

	mmpp := SourceConfig{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 50}
	cases := []struct {
		name    string
		cfg     noc.Config
		pattern Pattern
		rates   []float64
		src     SourceConfig
		cycles  int
	}{
		{"uniform", cfg, NewUniform(cfg), UniformRates(cfg, 0.2), SourceConfig{}, 30_000},
		{"uniform-lowload", cfg, NewUniform(cfg), UniformRates(cfg, 0.01), SourceConfig{}, 60_000},
		// Gaps far beyond the scan horizon.
		{"uniform-vanishing", cfg, NewUniform(cfg), UniformRates(cfg, 1e-4), SourceConfig{}, 60_000},
		{"transpose", cfg, transpose, UniformRates(cfg, 0.1), SourceConfig{}, 30_000},
		{"hotspot", cfg, hotspot, UniformRates(cfg, 0.15), SourceConfig{}, 30_000},
		{"o1turn", o1, NewUniform(o1), UniformRates(o1, 0.2), SourceConfig{}, 30_000},
		{"app-zero-rate-nodes", cfg, app, appRates, SourceConfig{}, 30_000},
		{"p=1", cfg, NewUniform(cfg), UniformRates(cfg, float64(cfg.PacketSize)), SourceConfig{}, 10_000},
		{"mmpp", cfg, NewUniform(cfg), UniformRates(cfg, 0.2), mmpp, 40_000},
		{"mmpp-o1turn-app", o1, app, appRates, SourceConfig{Kind: SourceMMPP, BurstRatio: 2, BurstLen: 8}, 40_000},
		// One-cycle ON sojourns are drawn without touching the generator.
		{"mmpp-unit-bursts", cfg, NewUniform(cfg), UniformRates(cfg, 0.5), SourceConfig{Kind: SourceMMPP, BurstRatio: 3, BurstLen: 1}, 30_000},
		// ON sojourns longer than the scan horizon.
		{"mmpp-long-bursts", cfg, NewUniform(cfg), UniformRates(cfg, 0.004), SourceConfig{Kind: SourceMMPP, BurstRatio: 1.5, BurstLen: 5000}, 60_000},
		{"pareto", cfg, NewUniform(cfg), UniformRates(cfg, 0.2), SourceConfig{Kind: SourcePareto, BurstRatio: 4, BurstLen: 50, ParetoAlpha: 1.4}, 40_000},
	}
	for _, c := range cases {
		for _, seed := range []int64{1, -3} {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				ref := newRefInjector(c.cfg, c.pattern, c.rates, seed)
				inj, err := NewInjectorRates(c.cfg, c.pattern, c.rates, seed)
				if err != nil {
					t.Fatal(err)
				}
				if c.src.Kind != "" {
					ref.setSource(c.src)
					if err := inj.SetSource(c.src); err != nil {
						t.Fatal(err)
					}
				}
				net, err := noc.NewNetwork(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got trace.Injection
				inj.StartCapture(&got)
				for cyc := 0; cyc < c.cycles; cyc++ {
					ref.nodeCycle()
					inj.NodeCycle(net, 0)
					if inj.WindowFlits() != ref.flits {
						t.Fatalf("after cycle %d: WindowFlits %d, reference %d", cyc, inj.WindowFlits(), ref.flits)
					}
					if g, w := onFraction(inj), ref.onFraction(); g != w {
						t.Fatalf("after cycle %d: ON fraction %g, reference %g", cyc, g, w)
					}
				}
				if len(ref.events) == 0 {
					t.Fatal("the case generated no packets")
				}
				if len(got.Events) != len(ref.events) {
					t.Fatalf("%d events, reference %d", len(got.Events), len(ref.events))
				}
				for i, w := range ref.events {
					if got.Events[i] != w {
						t.Fatalf("event %d: %+v, reference %+v", i, got.Events[i], w)
					}
				}
				if got.Cycles != int64(c.cycles) {
					t.Errorf("capture spans %d cycles, want %d", got.Cycles, c.cycles)
				}

				// Replay rides the same schedule: the recorded stream
				// comes back at the recorded cycles.
				rinj, err := NewReplayInjector(c.cfg, &got)
				if err != nil {
					t.Fatal(err)
				}
				rnet, err := noc.NewNetwork(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				next, flits := 0, int64(0)
				for cyc := 0; cyc < c.cycles; cyc++ {
					rinj.NodeCycle(rnet, 0)
					for ; next < len(got.Events) && got.Events[next].Cycle == int64(cyc); next++ {
						flits += int64(c.cfg.PacketSize)
					}
					if rinj.WindowFlits() != flits {
						t.Fatalf("replay after cycle %d: WindowFlits %d, recorded %d", cyc, rinj.WindowFlits(), flits)
					}
				}
			})
		}
	}
}

// TestSetSourceAfterFirstCycleFails: once a node cycle has run the
// generators have been scanned ahead, and a new source would silently
// corrupt the stream; the call must fail and leave the injector as it was.
func TestSetSourceAfterFirstCycleFails(t *testing.T) {
	cfg := cfg5()
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(cfg, NewUniform(cfg), 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	mmpp := SourceConfig{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 50}
	if err := inj.SetSource(mmpp); err != nil {
		t.Fatalf("SetSource before the first cycle: %v", err)
	}
	inj.NodeCycle(net, 0)
	for _, src := range []SourceConfig{{}, mmpp, {Kind: SourcePareto, BurstRatio: 2, BurstLen: 10, ParetoAlpha: 1.5}} {
		if err := inj.SetSource(src); err == nil {
			t.Errorf("SetSource(%+v) after a node cycle succeeded", src)
		}
	}
	if src := sourceOf(inj); src != mmpp {
		t.Errorf("a rejected SetSource changed the source to %+v", src)
	}
}
