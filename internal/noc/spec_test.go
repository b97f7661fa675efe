package noc

import "fmt"

// spec is a reference model of the router the engine implements, written
// for clarity rather than speed, so that the engine can be checked
// against something that shares none of its code. It is the textbook
// input-queued virtual-channel router with credit-based flow control
// (Dally & Towles, Principles and Practices of Interconnection Networks,
// 2004; Booksim 2, Jiang et al., ISPASS 2013): per-VC flit queues kept as
// slices, one function per pipeline stage per router, its own injection
// sources, credit counters, island clocks and ejection queue. From the
// engine it takes only Config, the small types (Port, NodeID, Link,
// Island, RouterActivity) and the routing decision, which it is handed
// as a function of a Packet.
//
// Cycle t runs in this order:
//
//   - the island clocks tick; a router or source in an island that skips
//     the cycle runs no pipeline stage and injects nothing;
//   - the flits ejected during t-1 complete: their packets arrive at t;
//   - the wires land: every flit sent during t-1 is written into its input
//     VC queue, and every credit for a slot freed during t-1 reaches the
//     output VC (or source) upstream of that slot; input latches run at
//     the link clock, so stalled routers take their flits and credits too;
//   - each router reads its state as the wires left it, decides what
//     every stage does, and only then writes the new state, so no stage
//     sees a write of the same cycle; a flit leaving a router is put on a
//     wire, a freed slot's credit too, and an ejected flit in the
//     ejection queue;
//   - each source injects at most one flit onto the wire into its
//     router's local input port.
//
// An input VC advances at most one stage per cycle: idle → routing when a
// head has been written into it (even while its router is stalled),
// routing → waiting for an output VC (RC), waiting → active (VA), and
// active → idle when its tail leaves (SA), or straight back to routing
// when the next packet's head is already queued behind the tail. A flit
// written into an active VC competes for the switch in the cycle it
// lands, so body flits cross a router per cycle and heads take four.
//
// The arbitration order, which the engine must follow bit for bit:
//
//   - VA: each output port, in port order, grants its free output VCs in
//     index order to the input VCs routed to it, round-robin over the
//     flat input-VC index port*VCs+vc starting at the port's pointer; the
//     pointer moves one past each winner.
//   - SA runs an input phase and then an output phase. Each input port
//     nominates its first active VC, at or after the port's pointer, that
//     has a flit queued and a credit on its output VC. Each output port
//     grants the first nominating input port at or after its own pointer.
//     Both pointers of a grant move one past their winner.
//   - A source with no packet in progress takes the next queued packet
//     onto the first local VC, round-robin from its pointer, that is not
//     busy — a VC is busy until the tail of its packet has been sent and
//     every credit has come back — and its pointer moves one past it.
//
// Ejection ports always accept a flit, so their output VCs never spend
// credits.
type spec struct {
	cfg    Config
	route  func(NodeID, *Packet) Port
	faulty map[Link]bool

	islands  []Island
	islandOf []int // per node, -1 for none
	acc      []float64
	running  []bool

	routers []specRouter
	sources []specSource

	// What the current cycle put on the wires and in the ejection queue;
	// it lands, and completes, in the next.
	wires   []specWire
	credits []specCredit
	ejected []specFlit

	cycle  int64
	nextID int64
	// Counters, as Network.Stats names them.
	queued, arrived, injected, ejectedFlits int64
	// arrivals lists the packets that arrived, in order, with their cycle.
	arrivals [][2]int64

	probe Packet // the routing decision's argument
}

type specStage int

const (
	specIdle specStage = iota
	specRouting
	specWaitVC
	specActive
)

type specPacket struct {
	id   int64
	dst  NodeID
	dim  uint8
	size int
}

type specFlit struct {
	pkt *specPacket
	seq int
}

func (f specFlit) head() bool { return f.seq == 0 }
func (f specFlit) tail() bool { return f.seq == f.pkt.size-1 }

type specInVC struct {
	flits []specFlit
	stage specStage
	route Port // valid from specWaitVC on
	outVC int  // valid in specActive
}

type specOutVC struct {
	owner   int // input VC port*VCs+vc holding it, -1 when free
	credits int // free slots in the downstream input VC
}

type specRouter struct {
	in  []specInVC  // port*VCs+vc
	out []specOutVC // port*VCs+vc
	// Round-robin pointers: VA per output port over flat input VCs, SA
	// per input port over its VCs and per output port over input ports.
	vaPtr, saInPtr, saOutPtr [NumPorts]int
	act                      RouterActivity
}

type specSource struct {
	queue   []*specPacket
	cur     *specPacket // the packet being sent, nil for none
	curVC   int
	seq     int   // the next flit of cur
	credits []int // per local input VC of the router
	ptr     int
}

// specWire is a flit on its way into input VC vc of node's input port.
type specWire struct {
	node int
	port Port
	vc   int
	flit specFlit
}

// specCredit names an input VC slot that was freed: its credit goes to
// whatever feeds that input port.
type specCredit struct {
	node int
	port Port
	vc   int
}

// specMove is one stage's decision for one input VC, taken from the old
// state and applied in the write phase. to is the stage the VC moves to;
// specActive with send set is a switch grant through port.
type specMove struct {
	in    int
	to    specStage
	send  bool
	port  Port
	outVC int
}

func newSpec(cfg Config, faults []Link, islands []Island, route func(NodeID, *Packet) Port) *spec {
	nodes := cfg.Width * cfg.Height
	total := NumPorts * cfg.VCs
	s := &spec{cfg: cfg, route: route, faulty: map[Link]bool{}, islands: islands}
	for _, l := range faults {
		s.faulty[l] = true
	}
	s.routers = make([]specRouter, nodes)
	s.sources = make([]specSource, nodes)
	s.islandOf = make([]int, nodes)
	for id := range s.routers {
		r := &s.routers[id]
		r.in = make([]specInVC, total)
		r.out = make([]specOutVC, total)
		for o := range r.out {
			r.out[o] = specOutVC{owner: -1, credits: cfg.BufDepth}
		}
		s.sources[id].credits = make([]int, cfg.VCs)
		for v := range s.sources[id].credits {
			s.sources[id].credits[v] = cfg.BufDepth
		}
		// Later islands win where rectangles overlap.
		s.islandOf[id] = -1
		x, y := id%cfg.Width, id/cfg.Width
		for k, isl := range islands {
			if x >= isl.X0 && x <= isl.X1 && y >= isl.Y0 && y <= isl.Y1 {
				s.islandOf[id] = k
			}
		}
	}
	s.acc = make([]float64, len(islands))
	s.running = make([]bool, len(islands))
	return s
}

// newPacket queues a packet at src's source.
func (s *spec) newPacket(src, dst NodeID, dim uint8) {
	s.nextID++
	s.queued++
	q := &s.sources[src].queue
	*q = append(*q, &specPacket{id: s.nextID, dst: dst, dim: dim, size: s.cfg.PacketSize})
}

// neighbour returns the node behind id's port p, or -1 off the mesh.
func (s *spec) neighbour(id int, p Port) int {
	x, y := id%s.cfg.Width, id/s.cfg.Width
	switch p {
	case PortNorth:
		y--
	case PortSouth:
		y++
	case PortEast:
		x++
	case PortWest:
		x--
	default:
		return -1
	}
	if x < 0 || x >= s.cfg.Width || y < 0 || y >= s.cfg.Height {
		return -1
	}
	return y*s.cfg.Width + x
}

// facing returns the port of the neighbour behind p that faces back.
func facing(p Port) Port { return (p-1+2)%4 + 1 }

func (s *spec) stalled(id int) bool {
	k := s.islandOf[id]
	return k >= 0 && !s.running[k]
}

// step runs one cycle.
func (s *spec) step() {
	s.cycle++
	for k := range s.islands {
		s.acc[k] += s.islands[k].Speed
		s.running[k] = s.acc[k] >= 1
		if s.running[k] {
			s.acc[k]--
		}
	}

	for _, f := range s.ejected {
		s.ejectedFlits++
		if f.tail() {
			s.arrived++
			s.arrivals = append(s.arrivals, [2]int64{f.pkt.id, s.cycle})
		}
	}
	s.ejected = s.ejected[:0]

	vcs := s.cfg.VCs
	for _, w := range s.wires {
		r := &s.routers[w.node]
		in := &r.in[int(w.port)*vcs+w.vc]
		if len(in.flits) == s.cfg.BufDepth {
			panic(fmt.Sprintf("spec: input VC %d of port %d of router %d overflows", w.vc, w.port, w.node))
		}
		in.flits = append(in.flits, w.flit)
		r.act.BufWrites++
		if w.port == PortLocal {
			r.act.InjectFlits++
		}
	}
	for _, c := range s.credits {
		if c.port == PortLocal {
			s.sources[c.node].credits[c.vc]++
			continue
		}
		up := s.neighbour(c.node, c.port)
		o := &s.routers[up].out[int(facing(c.port))*vcs+c.vc]
		if o.credits++; o.credits > s.cfg.BufDepth {
			panic("spec: more credits than slots")
		}
	}
	s.wires, s.credits = s.wires[:0], s.credits[:0]

	var moves []specMove
	for id := range s.routers {
		r := &s.routers[id]
		moves = s.bufferWrite(r, moves[:0])
		if !s.stalled(id) {
			moves = s.routeCompute(id, r, moves)
			moves = s.allocVC(r, moves)
			moves = s.allocSwitch(r, moves)
		}
		for _, m := range moves {
			s.apply(id, r, m)
		}
	}
	for id := range s.sources {
		if !s.stalled(id) {
			s.inject(id)
		}
	}
}

// bufferWrite: an idle VC whose queue holds a head starts routing it.
func (s *spec) bufferWrite(r *specRouter, moves []specMove) []specMove {
	for i := range r.in {
		if r.in[i].stage == specIdle && len(r.in[i].flits) > 0 {
			moves = append(moves, specMove{in: i, to: specRouting})
		}
	}
	return moves
}

// routeCompute: every routing VC learns its output port from its head.
func (s *spec) routeCompute(id int, r *specRouter, moves []specMove) []specMove {
	for i := range r.in {
		if in := &r.in[i]; in.stage == specRouting {
			pk := in.flits[0].pkt
			s.probe.Dst, s.probe.DimOrder = pk.dst, pk.dim
			moves = append(moves, specMove{in: i, to: specWaitVC, port: s.route(NodeID(id), &s.probe)})
		}
	}
	return moves
}

// allocVC grants free output VCs to waiting input VCs.
func (s *spec) allocVC(r *specRouter, moves []specMove) []specMove {
	vcs := s.cfg.VCs
	total := NumPorts * vcs
	var waiting [NumPorts]bool
	for i := range r.in {
		if r.in[i].stage == specWaitVC {
			waiting[r.in[i].route] = true
		}
	}
	for op := 0; op < NumPorts; op++ {
		if !waiting[op] {
			continue
		}
		ov := 0 // the next output VC to offer, once it is free
		for k := 0; k < total; k++ {
			i := (r.vaPtr[op] + k) % total
			if in := &r.in[i]; in.stage != specWaitVC || int(in.route) != op {
				continue
			}
			for ov < vcs && r.out[op*vcs+ov].owner >= 0 {
				ov++
			}
			if ov == vcs {
				break
			}
			moves = append(moves, specMove{in: i, to: specActive, port: Port(op), outVC: ov})
			ov++
		}
	}
	return moves
}

// allocSwitch picks the flits that cross the switch this cycle.
func (s *spec) allocSwitch(r *specRouter, moves []specMove) []specMove {
	vcs := s.cfg.VCs
	var nominee [NumPorts]int
	for ip := 0; ip < NumPorts; ip++ {
		nominee[ip] = -1
		for k := 0; k < vcs; k++ {
			i := ip*vcs + (r.saInPtr[ip]+k)%vcs
			in := &r.in[i]
			if in.stage == specActive && len(in.flits) > 0 && r.out[int(in.route)*vcs+in.outVC].credits > 0 {
				nominee[ip] = i
				break
			}
		}
	}
	for op := 0; op < NumPorts; op++ {
		for k := 0; k < NumPorts; k++ {
			ip := (r.saOutPtr[op] + k) % NumPorts
			if i := nominee[ip]; i >= 0 && int(r.in[i].route) == op {
				moves = append(moves, specMove{in: i, to: specActive, send: true, port: Port(op)})
				break
			}
		}
	}
	return moves
}

// apply writes one decision into router id.
func (s *spec) apply(id int, r *specRouter, m specMove) {
	vcs := s.cfg.VCs
	in := &r.in[m.in]
	switch {
	case m.to == specRouting:
		if !in.flits[0].head() {
			panic("spec: a packet starts without its head")
		}
		in.stage = specRouting
	case m.to == specWaitVC:
		in.stage, in.route = specWaitVC, m.port
	case !m.send:
		r.out[int(m.port)*vcs+m.outVC].owner = m.in
		in.stage, in.outVC = specActive, m.outVC
		r.act.VCAllocs++
		r.vaPtr[m.port] = (m.in + 1) % (NumPorts * vcs)
	default:
		s.traverse(id, r, m.in, m.port)
	}
}

// traverse sends the front flit of input VC i through output port op.
func (s *spec) traverse(id int, r *specRouter, i int, op Port) {
	vcs := s.cfg.VCs
	in := &r.in[i]
	f := in.flits[0]
	in.flits = in.flits[1:]
	ip, v := i/vcs, i%vcs
	r.act.BufReads++
	r.act.XbarTraversals++
	r.act.SAAllocs++
	r.saInPtr[ip] = (v + 1) % vcs
	r.saOutPtr[op] = (ip + 1) % NumPorts
	s.credits = append(s.credits, specCredit{node: id, port: Port(ip), vc: v})
	out := &r.out[int(op)*vcs+in.outVC]
	if op == PortLocal {
		r.act.EjectFlits++
		s.ejected = append(s.ejected, f)
	} else {
		nb := s.neighbour(id, op)
		if nb < 0 || s.faulty[Link{From: NodeID(id), To: NodeID(nb)}] {
			panic(fmt.Sprintf("spec: router %d routes through its dead port %d", id, op))
		}
		r.act.LinkFlits++
		out.credits--
		s.wires = append(s.wires, specWire{node: nb, port: facing(op), vc: in.outVC, flit: f})
	}
	if f.tail() {
		out.owner = -1
		in.stage, in.outVC = specIdle, -1
		if len(in.flits) > 0 {
			in.stage = specRouting
		}
	}
}

// inject lets source id send at most one flit into its router.
func (s *spec) inject(id int) {
	src := &s.sources[id]
	depth, vcs := s.cfg.BufDepth, s.cfg.VCs
	if src.cur == nil && len(src.queue) > 0 {
		for k := 0; k < vcs; k++ {
			if v := (src.ptr + k) % vcs; src.credits[v] == depth {
				src.cur, src.queue = src.queue[0], src.queue[1:]
				src.curVC, src.seq, src.ptr = v, 0, (v+1)%vcs
				break
			}
		}
	}
	if src.cur == nil || src.credits[src.curVC] == 0 {
		return
	}
	f := specFlit{pkt: src.cur, seq: src.seq}
	src.credits[src.curVC]--
	s.wires = append(s.wires, specWire{node: id, port: PortLocal, vc: src.curVC, flit: f})
	s.injected++
	if src.seq++; f.tail() {
		src.cur = nil
	}
}

// inFlight counts the flits queued, on the wires, ejected but not yet
// complete, and still owed by the sources.
func (s *spec) inFlight() int64 {
	total := int64(len(s.wires) + len(s.ejected))
	for id := range s.routers {
		for _, in := range s.routers[id].in {
			total += int64(len(in.flits))
		}
		src := &s.sources[id]
		total += int64(len(src.queue) * s.cfg.PacketSize)
		if src.cur != nil {
			total += int64(src.cur.size - src.seq)
		}
	}
	return total
}

// backlog counts the packets waiting in the source queues.
func (s *spec) backlog() int64 {
	var total int64
	for id := range s.sources {
		total += int64(len(s.sources[id].queue))
	}
	return total
}
