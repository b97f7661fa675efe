package noc

import "testing"

func TestPacketQueueFIFO(t *testing.T) {
	var q packetQueue
	if q.Len() != 0 || q.Pop() != nil {
		t.Fatal("empty queue misbehaves")
	}
	pkts := make([]*Packet, 10)
	for i := range pkts {
		pkts[i] = &Packet{ID: int64(i)}
		q.Push(pkts[i])
	}
	for i := range pkts {
		if q.Pop() != pkts[i] {
			t.Fatalf("Pop() out of order at %d", i)
		}
	}
}

func TestPacketQueueCompaction(t *testing.T) {
	// Exercise the compaction path: push and pop many packets and check
	// order is preserved throughout.
	var q packetQueue
	next, expect := int64(0), int64(0)
	for round := 0; round < 100; round++ {
		for i := 0; i < 7; i++ {
			q.Push(&Packet{ID: next})
			next++
		}
		for i := 0; i < 5; i++ {
			p := q.Pop()
			if p.ID != expect {
				t.Fatalf("popped %d, want %d", p.ID, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		p := q.Pop()
		if p.ID != expect {
			t.Fatalf("drain popped %d, want %d", p.ID, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d packets, pushed %d", expect, next)
	}
}

// TestPacketQueueRewindsWhenDrained: a queue that keeps draining reuses
// its first slots and never grows, however many packets pass through it.
func TestPacketQueueRewindsWhenDrained(t *testing.T) {
	var q packetQueue
	p := &Packet{}
	for i := 0; i < 10_000; i++ {
		q.Push(p)
		if q.Pop() != p || q.Len() != 0 {
			t.Fatalf("pair %d: queue did not return the packet and drain", i)
		}
	}
	if c := cap(q.items); c > 2 {
		t.Errorf("10000 push/pop pairs grew the queue to %d slots, want at most 2", c)
	}
}

// TestVCRingWrapAround exercises the inline per-VC flit ring (bufHead/
// bufLen over the network's flat bufs array) through the router's public
// accept/step path at a non-power-of-two depth, forcing wrap-around.
func TestVCRingWrapAround(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufDepth = 3
	cfg.PacketSize = 7
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []int32
	n.OnArrive = func(p *Packet, cycle int64) { got = append(got, int32(p.Hops)) }
	for i := 0; i < 5; i++ {
		n.NewPacket(0, 24, 0, 0)
	}
	if !n.Drain(10000) {
		t.Fatal("network did not drain")
	}
	n.CheckInvariants()
	if len(got) != 5 {
		t.Fatalf("got %d arrivals, want 5", len(got))
	}
	for i, h := range got {
		if h != 8 {
			t.Fatalf("packet %d took %d hops, want 8", i, h)
		}
	}
}
