package noc

// source models the traffic injection port of one node: an unbounded
// source queue of generated packets feeding the router's local input port
// one flit per network cycle, with per-VC credit tracking. It mirrors
// Booksim's infinite source queue, so measured packet latency includes
// source-queue waiting time — essential for the latency blow-up at
// saturation that the RMSD policy exploits.
type source struct {
	node   NodeID
	queue  packetQueue
	router *Router

	// credits[v] counts free slots in the router's local input VC v.
	credits []int
	// outstanding[v] counts flits sent on VC v whose credits have not yet
	// returned; the VC can host a new packet only when it has fully
	// drained (outstanding == 0) after the tail was sent.
	outstanding []int
	// tailSent[v] reports whether the tail of the current packet on VC v
	// has been sent.
	tailSent []bool
	// busy[v] reports whether VC v is reserved by a (possibly draining)
	// packet.
	busy []bool

	// cur is the packet currently being serialized, if any.
	cur    *Packet
	curVC  int
	curSeq int

	rrVC int // round-robin pointer for VC selection

	// active reports membership in the network's active-source bitmask.
	active bool
}

// hasWork reports whether the source still owes the network flits: a
// packet mid-serialization or queued packets. A source without work is a
// guaranteed no-op in step, so the engine drops it from the active set
// (credit returns are delivered independently of step).
func (s *source) hasWork() bool { return s.cur != nil || s.queue.Len() > 0 }

// newSources builds the injection source of every router. The structs
// and each of the four per-VC arrays are one allocation for the whole
// mesh, carved per node; Network.Reset fills in the run state.
func newSources(routers []Router, vcs int) []*source {
	nodes := len(routers)
	slab := make([]source, nodes)
	credits := make([]int, nodes*vcs)
	outstanding := make([]int, nodes*vcs)
	tailSent := make([]bool, nodes*vcs)
	busy := make([]bool, nodes*vcs)
	sources := make([]*source, nodes)
	for id := range slab {
		lo, hi := id*vcs, (id+1)*vcs
		slab[id] = source{
			node:        NodeID(id),
			router:      &routers[id],
			credits:     credits[lo:hi],
			outstanding: outstanding[lo:hi],
			tailSent:    tailSent[lo:hi],
			busy:        busy[lo:hi],
		}
		sources[id] = &slab[id]
	}
	return sources
}

// reset returns the source to its as-built state — an empty queue, every
// local VC free with depth credits — keeping its wiring, its per-VC
// arrays and the queue's capacity.
func (s *source) reset(depth int) {
	s.queue.reset()
	*s = source{
		node:        s.node,
		router:      s.router,
		queue:       s.queue,
		credits:     s.credits,
		outstanding: s.outstanding,
		tailSent:    s.tailSent,
		busy:        s.busy,
	}
	for v := range s.credits {
		s.credits[v] = depth
		s.outstanding[v] = 0
		s.tailSent[v] = true
		s.busy[v] = false
	}
}

// acceptCredit processes a credit returned by the router's local input port.
func (s *source) acceptCredit(vc int) {
	s.credits[vc]++
	s.outstanding[vc]--
	if s.outstanding[vc] < 0 {
		panic("noc: source credit underflow")
	}
	if s.busy[vc] && s.tailSent[vc] && s.outstanding[vc] == 0 {
		s.busy[vc] = false
	}
}

// step sends at most one flit into the router's local input port: the
// flit is written directly into the local VC's ring slot (the source is
// that slot's only writer this cycle) and the arrival notice is staged
// for delivery next cycle. No credit rides along
// (credNode < 0): the source tracks its own credits and the router
// returns them through the link tables when the slot drains.
func (s *source) step(cycle int64, cfg *Config) {
	if s.cur == nil {
		s.startPacket(cycle, cfg)
	}
	if s.cur == nil {
		return
	}
	if s.credits[s.curVC] <= 0 {
		return
	}
	p := s.cur
	f := Flit{
		Packet: p,
		Head:   s.curSeq == 0,
		Tail:   s.curSeq == p.Size-1,
	}
	s.credits[s.curVC]--
	s.outstanding[s.curVC]++
	r := s.router
	net := r.net
	g := (int(s.node)*NumPorts+int(PortLocal))*r.vcs + s.curVC
	dst := &net.vc[g]
	slot := int(dst.wrHead)
	net.bufs[g*r.depth+slot] = f
	if slot++; slot == r.depth {
		slot = 0
	}
	dst.wrHead = uint8(slot)
	sh := r.sh
	o := &sh.out[cycle&1][sh.index]
	o.links = append(o.links, makeLinkEvent(int32(s.node), int8(PortLocal), int8(s.curVC), -1, 0, 0))
	sh.flitsInjected++
	if f.Head {
		p.InjectCycle = cycle
	}
	s.curSeq++
	if f.Tail {
		s.tailSent[s.curVC] = true
		s.cur = nil
	}
}

// startPacket pops the next queued packet and reserves a free local VC for
// it, if one is available.
func (s *source) startPacket(cycle int64, cfg *Config) {
	if s.queue.Len() == 0 {
		return
	}
	for off := 0; off < cfg.VCs; off++ {
		v := (s.rrVC + off) % cfg.VCs
		if s.busy[v] {
			continue
		}
		s.rrVC = (v + 1) % cfg.VCs
		s.cur = s.queue.Pop()
		s.curVC = v
		s.curSeq = 0
		s.busy[v] = true
		s.tailSent[v] = false
		return
	}
}

// pendingFlits returns the number of flits still owed to the network:
// queued packets plus the unsent remainder of the current packet.
func (s *source) pendingFlits(cfg *Config) int64 {
	n := int64(s.queue.Len()) * int64(cfg.PacketSize)
	if s.cur != nil {
		n += int64(s.cur.Size - s.curSeq)
	}
	return n
}
