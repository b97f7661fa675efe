package noc

import (
	"math/rand"
	"reflect"
	"testing"
)

// asBuilt strips what Reset is allowed to keep that a new network lacks —
// recycled packets and grown-but-empty slices, which DeepEqual tells from
// nil ones — and fails the test if any of those slices is not empty.
func asBuilt(t *testing.T, n *Network) *Network {
	t.Helper()
	n.packetFree = nil
	empty := func(name string, length int) {
		if length != 0 {
			t.Fatalf("%s holds %d entries after Reset", name, length)
		}
	}
	for i := range n.shards {
		s := &n.shards[i]
		for p := range s.out {
			for d := range s.out[p] {
				o := &s.out[p][d]
				empty("staged links", len(o.links))
				empty("staged credits", len(o.credits))
				empty("carried flits", len(o.carried))
				*o = outbox{}
			}
			empty("ejected tails", len(s.tails[p]))
			s.tails[p] = nil
		}
	}
	for _, s := range n.sources {
		empty("source queue", len(s.queue.items))
		s.queue.items = nil
	}
	return n
}

// TestResetEqualsNew: whatever a run left behind, Reset yields the state
// the constructor yields, field for field, and the reset network then
// behaves as the new one does.
func TestResetEqualsNew(t *testing.T) {
	small := DefaultConfig()
	small.Width, small.Height = 4, 3
	wide := DefaultConfig() // 12 VCs: the most Validate accepts, 60 of the allocator word's 64 bits
	wide.Width, wide.Height, wide.VCs = 3, 3, 12
	big := DefaultConfig() // 9x9: every bitmask spans two words
	big.Width, big.Height = 9, 9
	faults := []Link{{From: 1, To: 2}, {From: 2, To: 1}, {From: 5, To: 9}}
	islands := []Island{{X0: 0, Y0: 0, X1: 1, Y1: 2, Speed: 0.5}, {X0: 2, Y0: 1, X1: 3, Y1: 2, Speed: 0.75}}

	for _, tc := range []struct {
		name   string
		cfg    Config
		faults []Link
		dirty  func(n *Network)
	}{
		{"drained", small, nil, func(n *Network) {
			randomTraffic(n, rand.New(rand.NewSource(2)), 500, 0.01)
			if !n.Drain(10_000) {
				t.Fatal("traffic did not drain")
			}
		}},
		{"saturated", DefaultConfig(), nil, func(n *Network) {
			// Four times the uniform saturation rate: queues grow past the
			// compaction threshold, every VC and credit is in use.
			randomTraffic(n, rand.New(rand.NewSource(7)), 3000, 0.08)
			if n.SourceBacklog() < 1000 {
				t.Fatalf("backlog %d: the run did not saturate", n.SourceBacklog())
			}
		}},
		{"abandoned mid-flight", big, nil, func(n *Network) {
			n.OnArrive = func(*Packet, int64) {}
			randomTraffic(n, rand.New(rand.NewSource(3)), 777, 0.01)
			if n.Quiescent() {
				t.Fatal("nothing in flight to abandon")
			}
		}},
		{"12 VCs", wide, nil, func(n *Network) {
			randomTraffic(n, rand.New(rand.NewSource(11)), 300, 0.05)
			if n.Quiescent() {
				t.Fatal("nothing is in flight")
			}
		}},
		{"faulted mesh", small, faults, func(n *Network) {
			randomTraffic(n, rand.New(rand.NewSource(13)), 900, 0.015)
		}},
		{"islands", small, nil, func(n *Network) {
			if err := n.SetIslands(islands); err != nil {
				t.Fatal(err)
			}
			randomTraffic(n, rand.New(rand.NewSource(17)), 900, 0.01)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			used, err := NewNetworkWithFaults(tc.cfg, tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			tc.dirty(used)
			recyclable := len(used.packetFree)
			used.Reset()
			used.CheckInvariants()
			fresh, err := NewNetworkWithFaults(tc.cfg, tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			if len(used.packetFree) != recyclable {
				t.Errorf("Reset left %d of %d recycled packets", len(used.packetFree), recyclable)
			}
			if !reflect.DeepEqual(asBuilt(t, used), asBuilt(t, fresh)) {
				t.Fatal("a reset network differs from a new one")
			}

			var got, want []Packet
			used.OnArrive = func(p *Packet, _ int64) { got = append(got, *p) }
			fresh.OnArrive = func(p *Packet, _ int64) { want = append(want, *p) }
			for _, n := range []*Network{used, fresh} {
				randomTraffic(n, rand.New(rand.NewSource(19)), 600, 0.01)
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("the reset network delivered %d packets, the new one %d, or they differ", len(got), len(want))
			}
			if used.Activity() != fresh.Activity() {
				t.Fatal("activity counters diverge after Reset")
			}
		})
	}
}

// TestNewNetworkAllocations: the fabric is a handful of flat arrays, not
// an object per node.
func TestNewNetworkAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewNetwork(DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 25 {
		t.Errorf("NewNetwork makes %.0f allocations on the default mesh, want fewer than 25", allocs)
	}
}

// TestResetAllocatesNothing: a reset reuses every array the network owns.
func TestResetAllocatesNothing(t *testing.T) {
	n, err := NewNetwork(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	randomTraffic(n, rand.New(rand.NewSource(1)), 500, 0.02)
	if allocs := testing.AllocsPerRun(10, n.Reset); allocs != 0 {
		t.Errorf("Reset allocates %.0f objects, want 0", allocs)
	}
}
