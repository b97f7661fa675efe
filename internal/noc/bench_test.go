package noc

import (
	"math/rand"
	"testing"
)

// benchStep measures Network.Step cost on the default 5x5 at a given
// packet-generation probability per node per cycle.
func benchStep(b *testing.B, pktProb float64) {
	n, _ := NewNetwork(DefaultConfig())
	benchSteps(b, n, pktProb)
}

// benchSteps drives n for b.N cycles of uniform random traffic.
func benchSteps(b *testing.B, n *Network, pktProb float64) {
	cfg := n.cfg
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < cfg.Nodes(); s++ {
			if rng.Float64() < pktProb {
				d := s
				for d == s {
					d = rng.Intn(cfg.Nodes())
				}
				n.NewPacket(NodeID(s), NodeID(d), 0, 0)
			}
		}
		n.Step()
	}
}

func BenchmarkNetworkStepIdle(b *testing.B)     { benchStep(b, 0) }
func BenchmarkNetworkStepLight(b *testing.B)    { benchStep(b, 0.002) } // ~0.04 flits/node/cycle
func BenchmarkNetworkStepModerate(b *testing.B) { benchStep(b, 0.01) }  // ~0.2 flits/node/cycle
func BenchmarkNetworkStepHeavy(b *testing.B)    { benchStep(b, 0.02) }  // ~0.4 flits/node/cycle

// The 8x8 at 0.3 flits/node/cycle, 0.85 of its uniform saturation, as the
// bench's noc.step_ns_heavy_8x8 probe and its engine_saturated workload
// drive it. The plain variant steps both row shards on the caller, as any
// network without a Spare does; the Sharded twin lends it a second core
// that is always free, so heavy cycles fork onto the helper. Compare them
// with -cpu 2 (the twin needs a second P to gain anything).
func BenchmarkNetworkStepHeavy8x8(b *testing.B) { benchStep8x8(b, nil) }
func BenchmarkNetworkStepHeavy8x8Sharded(b *testing.B) {
	benchStep8x8(b, freeSpare{})
}

func benchStep8x8(b *testing.B, spare Spare) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 8, 8
	n, _ := NewNetwork(cfg)
	n.SetSpare(spare)
	defer n.SetSpare(nil)
	benchSteps(b, n, 0.015)
}
