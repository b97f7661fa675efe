package noc

import (
	"math/rand"
	"runtime"
	"testing"
)

// routerActivities returns a copy of each router's activity counters,
// indexed by node id.
func routerActivities(n *Network) []RouterActivity {
	out := make([]RouterActivity, len(n.routers))
	for i := range n.routers {
		out[i] = n.routers[i].Activity
	}
	return out
}

// stepTraffic drives a deterministic packet mix through the network: one
// packet every injectEvery cycles, cycling over a fixed set of flows that
// span the mesh corner to corner (on the default 5x5: 0->24, 24->0, 4->20,
// 12->7, 3->18), checking the engine invariants every 100 cycles.
func stepTraffic(net *Network, cycles int, injectEvery int) {
	w, nodes := net.cfg.Width, net.cfg.Nodes()
	last := nodes - 1
	flows := [][2]int{{0, last}, {last, 0}, {w - 1, last - w + 1}, {nodes / 2, w + 2}, {w - 2, last - w - 1}}
	fi := 0
	for c := 0; c < cycles; c++ {
		if injectEvery > 0 && c%injectEvery == 0 {
			f := flows[fi%len(flows)]
			fi++
			net.NewPacket(NodeID(f[0]), NodeID(f[1]), float64(net.Cycle()), 0)
		}
		net.Step()
		if c%100 == 99 {
			net.CheckInvariants()
		}
	}
}

// randomTraffic has every node start a packet to a random other node with
// probability prob per cycle, so work lands on every word of the active
// and per-stage bitmasks.
func randomTraffic(net *Network, rng *rand.Rand, cycles int, prob float64) {
	nodes := net.cfg.Nodes()
	for c := 0; c < cycles; c++ {
		for s := 0; s < nodes; s++ {
			if rng.Float64() < prob {
				d := rng.Intn(nodes - 1)
				if d >= s {
					d++
				}
				net.NewPacket(NodeID(s), NodeID(d), float64(net.Cycle()), 0)
			}
		}
		net.Step()
		if c%100 == 99 {
			net.CheckInvariants()
		}
	}
}

// TestStepZeroAllocsSteadyState asserts the tentpole's zero-alloc claim:
// once the free lists, staging buffers and work lists are warm, a steady
// state of injection + stepping never touches the heap — on the caller's
// goroutine, and with the row shards split across the helper.
func TestStepZeroAllocsSteadyState(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		net, err := NewNetwork(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Warm-up: grow every pool, queue and staging buffer to
		// steady-state capacity, then drain so the free lists are fully
		// stocked.
		stepTraffic(net, 4000, 8)
		if !net.Drain(10_000) {
			t.Fatal("warm-up traffic did not drain")
		}
		c := 0
		flows := [][2]NodeID{{0, 24}, {24, 0}, {4, 20}, {12, 7}}
		allocs := testing.AllocsPerRun(4000, func() {
			if c%8 == 0 {
				f := flows[(c/8)%len(flows)]
				net.NewPacket(f[0], f[1], float64(net.Cycle()), 0)
			}
			net.Step()
			c++
		})
		if allocs != 0 {
			t.Errorf("steady-state Step allocates %.2f objects/cycle, want 0", allocs)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = 8, 8
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		forceSharded(net)
		defer net.SetSpare(nil)
		rng := rand.New(rand.NewSource(3))
		randomTraffic(net, rng, 50, 0.01)
		awaitHelper(t, net)
		randomTraffic(net, rng, 3000, 0.01)
		if !net.Drain(10_000) {
			t.Fatal("warm-up traffic did not drain")
		}
		// AllocsPerRun would pin GOMAXPROCS to 1, where the helper cannot
		// run beside the caller; count the heap objects by hand instead.
		// The window runs on past its 4000 cycles until the helper has
		// claimed a shard at least once: on a busy host it may sit out
		// the first thousands.
		const window, maxCycles = 4000, 400_000
		_, split := net.SpareUse()
		flows := [][2]NodeID{{0, 63}, {63, 0}, {7, 56}, {35, 12}, {9, 54}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := 0
		for ; c < maxCycles; c++ {
			if c >= window {
				if _, now := net.SpareUse(); now != split {
					break
				}
			}
			if c%8 == 0 {
				f := flows[(c/8)%len(flows)]
				net.NewPacket(f[0], f[1], float64(net.Cycle()), 0)
			}
			net.Step()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%d steady-state sharded Steps allocate %d objects, want 0", c, n)
		}
		if _, now := net.SpareUse(); now == split {
			t.Errorf("no cycle of %d was stepped split: the helper never claimed a shard", c)
		}
	})
}

// TestQuiescentStepZeroAllocs covers the skip-ahead fast path: stepping an
// idle network is allocation-free from the first call.
func TestQuiescentStepZeroAllocs(t *testing.T) {
	net, err := NewNetwork(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, net.Step); allocs != 0 {
		t.Errorf("quiescent Step allocates %.2f objects/cycle, want 0", allocs)
	}
}

// TestWidestVCsKeepInvariants steps the widest mesh Validate accepts — 12
// VCs, 60 request bits in the allocator's word — under random traffic and
// checks flit, credit and VC-ownership conservation after every cycle. At
// 16 VCs the allocator this cap replaced granted a port's VC to another
// port's requester within a few thousand cycles of exactly this traffic.
func TestWidestVCsKeepInvariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height, cfg.VCs = 4, 4, 12
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 5000; c++ {
		randomTraffic(net, rng, 1, 0.02)
		net.CheckInvariants()
	}
	if _, arrived, _, _ := net.Stats(); arrived == 0 {
		t.Fatal("no packet arrived")
	}
}
