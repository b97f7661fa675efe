package traffic

import (
	"math/rand"
	"testing"

	"repro/internal/noc"
)

// BenchmarkInjectorNodeCycleDraws measures the injector's per-node-cycle
// fixed cost — one Bernoulli draw per node — with a rate so small that
// packets are (essentially) never generated. This is the floor every
// simulated node cycle pays regardless of load.
func BenchmarkInjectorNodeCycleDraws(b *testing.B) {
	cfg := noc.DefaultConfig()
	inj, err := NewInjector(cfg, NewUniform(cfg), 1e-12, 1)
	if err != nil {
		b.Fatal(err)
	}
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.NodeCycle(net, 0)
	}
}

// BenchmarkInjectorSteadyState measures injection plus network stepping at
// a moderate load, with the network draining what the injector offers so
// memory stays bounded.
func BenchmarkInjectorSteadyState(b *testing.B) {
	cfg := noc.DefaultConfig()
	inj, err := NewInjector(cfg, NewUniform(cfg), 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.NodeCycle(net, 0)
		net.Step()
	}
}

// BenchmarkNodeCycle measures one NodeCycle call on the default mesh at the
// two loads the repository benchmark probes (traffic.node_cycle_ns_low and
// _high) and under an on-off source. Injection alone would pile packets up
// at the sources, so the network is drained, untimed, every 500 cycles.
func BenchmarkNodeCycle(b *testing.B) {
	for _, c := range []struct {
		name string
		rate float64
		src  SourceConfig
	}{
		{"low", 0.02, SourceConfig{}},
		{"high", 0.39, SourceConfig{}},
		{"burst", 0.1, SourceConfig{Kind: SourceMMPP, BurstRatio: 4, BurstLen: 50}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := noc.DefaultConfig()
			inj, err := NewInjector(cfg, NewUniform(cfg), c.rate, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := inj.SetSource(c.src); err != nil {
				b.Fatal(err)
			}
			net, err := noc.NewNetwork(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inj.NodeCycle(net, 0)
				if i%500 == 499 {
					b.StopTimer()
					net.Drain(1 << 20)
					b.StartTimer()
				}
			}
		})
	}
}

// benchPattern measures one destination draw.
func benchPattern(b *testing.B, p Pattern) {
	rng := rand.New(rand.NewSource(1))
	cfg := noc.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var sink noc.NodeID
	for i := 0; i < b.N; i++ {
		sink += p.Dest(noc.NodeID(i%cfg.Nodes()), rng)
	}
	_ = sink
}

func BenchmarkPatternUniformDest(b *testing.B) {
	benchPattern(b, NewUniform(noc.DefaultConfig()))
}

func BenchmarkPatternTornadoDest(b *testing.B) {
	benchPattern(b, NewTornado(noc.DefaultConfig()))
}

func BenchmarkPatternTransposeDest(b *testing.B) {
	p, err := NewTranspose(noc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	benchPattern(b, p)
}
