package noc

import (
	"math/rand"
	"testing"
)

// stepN advances the network n cycles.
func stepN(n *Network, cycles int) {
	for i := 0; i < cycles; i++ {
		n.Step()
	}
}

func TestWormholeFlitsStayContiguousPerVC(t *testing.T) {
	// With a single VC, flits of different packets must never interleave
	// on a link: every body flit follows its own head. The router panics
	// on violations (body-without-head, non-head behind tail), so heavy
	// random traffic passing cleanly is the assertion.
	cfg := DefaultConfig()
	cfg.VCs = 1
	cfg.BufDepth = 2
	cfg.PacketSize = 5
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for c := 0; c < 4000; c++ {
		for s := 0; s < cfg.Nodes(); s++ {
			if rng.Float64() < 0.02 {
				d := s
				for d == s {
					d = rng.Intn(cfg.Nodes())
				}
				net.NewPacket(NodeID(s), NodeID(d), 0, 0)
			}
		}
		net.Step()
		if c%128 == 0 {
			net.CheckInvariants()
		}
	}
	if !net.Drain(100000) {
		t.Fatal("failed to drain")
	}
}

func TestHeadOfLineBlockingRelievedByVCs(t *testing.T) {
	// Construct interference: a long stream 0->4 (east row) competes with
	// a stream 20->24 that shares no channel, plus a crossing stream
	// 2->22. More VCs must never *hurt* the crossing stream's mean
	// latency, and typically help. Use deterministic comparison between
	// VCs=1 and VCs=4.
	meanLatency := func(vcs int) float64 {
		cfg := DefaultConfig()
		cfg.VCs = vcs
		cfg.PacketSize = 8
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum, n int64
		net.OnArrive = func(p *Packet, cycle int64) {
			if p.Src == 2 && p.Dst == 22 {
				sum += p.ArriveCycle - p.CreateCycle
				n++
			}
		}
		rng := rand.New(rand.NewSource(33))
		for c := 0; c < 8000; c++ {
			if rng.Float64() < 0.10 {
				net.NewPacket(0, 4, 0, 0)
			}
			if rng.Float64() < 0.10 {
				net.NewPacket(20, 24, 0, 0)
			}
			if rng.Float64() < 0.05 {
				net.NewPacket(2, 22, 0, 0)
			}
			net.Step()
		}
		if n == 0 {
			t.Fatal("no crossing packets arrived")
		}
		return float64(sum) / float64(n)
	}
	l1 := meanLatency(1)
	l4 := meanLatency(4)
	if l4 > l1*1.25 {
		t.Errorf("4-VC crossing latency %.1f much worse than 1-VC %.1f", l4, l1)
	}
}

func TestSwitchAllocatorSharesOutputFairly(t *testing.T) {
	// Two sources (west and north neighbours) stream packets through one
	// router towards the same ejection-adjacent path; round-robin SA must
	// give each a comparable share of deliveries.
	cfg := DefaultConfig()
	cfg.PacketSize = 4
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[NodeID]int{}
	net.OnArrive = func(p *Packet, cycle int64) { counts[p.Src]++ }
	// Saturating streams 10->14 and 2->14... both cross router 12 region.
	// Use 11->14 (east) and 13->14? 13 is adjacent. Take 10->14 (east
	// along row 2) and 2->14? (2,0)->(4,2): XY goes east to x=4 then
	// south — uses different row. Instead: 10->14 and 12->14 share the
	// east channel out of router 12.
	for c := 0; c < 6000; c++ {
		if c%4 == 0 {
			net.NewPacket(10, 14, 0, 0)
			net.NewPacket(12, 14, 0, 0)
		}
		net.Step()
	}
	a, b := counts[10], counts[12]
	if a == 0 || b == 0 {
		t.Fatalf("one source starved: %d vs %d", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("unfair sharing: %d vs %d packets (ratio %.2f)", a, b, ratio)
	}
}

func TestCreditsLimitInFlightFlits(t *testing.T) {
	// With BufDepth=1 and a single VC, at most one flit can occupy each
	// input buffer; the network must still deliver (slowly) and never
	// panic on credit violations.
	cfg := DefaultConfig()
	cfg.VCs = 1
	cfg.BufDepth = 1
	cfg.PacketSize = 3
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		net.NewPacket(0, 24, 0, 0)
	}
	arrived := 0
	net.OnArrive = func(p *Packet, cycle int64) { arrived++ }
	stepN(net, 2000)
	net.CheckInvariants()
	if arrived != 5 {
		t.Errorf("arrived %d/5 with minimal buffering", arrived)
	}
}

func TestBackpressurePropagatesToSource(t *testing.T) {
	// Eject-side congestion: many sources target one node; its ejection
	// port delivers at most one flit per cycle, so sustained aggregate
	// input above 1 flit/cycle must queue at the sources.
	cfg := DefaultConfig()
	cfg.PacketSize = 10
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 8000; c++ {
		for s := 0; s < cfg.Nodes(); s++ {
			// Aggregate offered to node 12: 24 nodes x 0.01 packets x 10
			// flits = 2.4 flits/cycle >> 1.
			if s != 12 && rng.Float64() < 0.01 {
				net.NewPacket(NodeID(s), 12, 0, 0)
			}
		}
		net.Step()
	}
	if backlog := net.SourceBacklog(); backlog < 50 {
		t.Errorf("hotspot backlog %d, expected heavy queueing", backlog)
	}
	// The ejection port delivered at most one flit per cycle.
	act := net.routers[12].Activity
	if act.EjectFlits > net.Cycle() {
		t.Errorf("node 12 ejected %d flits in %d cycles", act.EjectFlits, net.Cycle())
	}
}

func TestVCAllocationReleasedOnTail(t *testing.T) {
	// After a packet fully drains, every output VC must be free again.
	cfg := DefaultConfig()
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.NewPacket(0, 24, 0, 0)
	net.NewPacket(24, 0, 0, 0)
	if !net.Drain(5000) {
		t.Fatal("drain failed")
	}
	for id := 0; id < cfg.Nodes(); id++ {
		r := &net.routers[id]
		for p := 0; p < NumPorts; p++ {
			for v := 0; v < cfg.VCs; v++ {
				o := r.outState[p*cfg.VCs+v]
				if o.owner != -1 {
					t.Fatalf("router %d out[%d][%d] still owned after drain", id, p, v)
				}
				if o.credits != int32(cfg.BufDepth) {
					t.Fatalf("router %d out[%d][%d] credits %d != %d after drain",
						id, p, v, o.credits, cfg.BufDepth)
				}
			}
		}
		if r.nRouting != 0 || r.nWaitVC != 0 || r.nActive != 0 {
			t.Fatalf("router %d stage counters nonzero after drain", id)
		}
	}
}

func TestMinimalMeshTwoNodes(t *testing.T) {
	cfg := Config{Width: 2, Height: 1, VCs: 2, BufDepth: 2, PacketSize: 3, Routing: RoutingXY}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrived := 0
	net.OnArrive = func(p *Packet, cycle int64) { arrived++ }
	net.NewPacket(0, 1, 0, 0)
	net.NewPacket(1, 0, 0, 0)
	stepN(net, 200)
	if arrived != 2 {
		t.Errorf("arrived %d/2 on 2-node mesh", arrived)
	}
}

func TestDeadlockFreedomUnderSustainedSaturation(t *testing.T) {
	// Dimension-ordered routing on a mesh is deadlock-free; under deep
	// saturation the network must keep making forward progress (flits
	// keep ejecting) rather than wedging.
	cfg := DefaultConfig()
	cfg.VCs = 1 // hardest case
	cfg.BufDepth = 1
	cfg.PacketSize = 4
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var lastEjected int64
	for epoch := 0; epoch < 20; epoch++ {
		for c := 0; c < 500; c++ {
			for s := 0; s < cfg.Nodes(); s++ {
				if rng.Float64() < 0.25 {
					d := s
					for d == s {
						d = rng.Intn(cfg.Nodes())
					}
					net.NewPacket(NodeID(s), NodeID(d), 0, 0)
				}
			}
			net.Step()
		}
		_, _, _, ejected := net.Stats()
		if ejected == lastEjected {
			t.Fatalf("no forward progress during epoch %d: deadlock?", epoch)
		}
		lastEjected = ejected
	}
}

func TestLongPacketsSpanningManyRouters(t *testing.T) {
	// A packet longer than the total buffering along its path exercises
	// pipelined wormhole transmission across several routers at once.
	cfg := DefaultConfig()
	cfg.PacketSize = 64
	cfg.BufDepth = 2
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got *Packet
	net.OnArrive = func(p *Packet, cycle int64) { got = p }
	net.NewPacket(0, 24, 0, 0)
	stepN(net, 1000)
	if got == nil {
		t.Fatal("64-flit packet lost")
	}
	want := int64(4*(8+1) + 2 + 63)
	if latency := got.ArriveCycle - got.CreateCycle; latency != want {
		t.Errorf("latency %d, want %d", latency, want)
	}
}
