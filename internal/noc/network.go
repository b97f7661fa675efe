package noc

import (
	"fmt"
	"math/bits"
)

// linkInfo is one packed row of the flat link table (see Network.links):
// node/port name the downstream router and its input port behind this
// output port (node < 0 where the mesh ends), and target/upNode name the
// credit destination for slots this *input* port frees (the linkEvent
// credTarget encoding; upNode < 0 where there is no upstream router).
// Both halves face the same neighbour, whose row shard is shard (the
// router's own for the local port, -1 where the mesh ends).
type linkInfo struct {
	node   int32
	target int32
	upNode int32
	port   int8
	shard  int8
}

// Network is the complete mesh fabric: routers, links, and per-node
// injection sources. It advances strictly one network clock cycle per Step
// call; real-time semantics under DVFS are handled by the caller.
//
// The engine steps the mesh stage-major: for each pipeline stage (route
// computation, VC allocation, switch allocation + link traversal,
// ejection) it sweeps the active-router bitmask once over flat
// struct-of-arrays state (vc/bufs/outState) owned by the network, and link
// traversal resolves targets through flat link tables instead of chasing
// per-router neighbour pointers. Routers interact only through events
// staged for the next cycle, so each Step is (deliver -> compute) per row
// shard, then eject. The mesh is cut into a fixed number of row shards
// (see shard): one up to 32 routers, two beyond. They run one after the
// other on the calling goroutine, or — on a heavy cycle of a run that has
// borrowed a second core through SetSpare — the second on a helper
// goroutine at the same time, with one fork–join per cycle. Either way
// every simulated bit is the same. A quiescent network (nothing buffered,
// staged, or queued) advances the clock in O(1) — the skip-ahead fast
// path. The reference model in spec_test.go checks all of it flit for
// flit.
//
// A Network is used by one goroutine at a time and by one run at a time;
// its helper, when it has one, touches it only inside Step. Reset makes it
// as good as new for the next run on the same fabric;
// package sim pools networks that way, and a network in its pool belongs
// to the pool — a run touches a network only between acquiring it and
// handing it back. NewNetwork itself never pools: what it returns is the
// caller's alone.
type Network struct {
	cfg Config
	// routers holds the mesh's routers contiguously (never reallocated
	// after construction, so the sources' router pointers stay valid).
	// Contiguity keeps the per-router allocator state of adjacent routers
	// on neighbouring cache lines for the stage sweeps.
	routers []Router
	// sources[id] points into one contiguous slab of sources (see
	// newSources), so walking it in id order walks memory forward.
	sources []*source

	// Flat per-VC state of the whole mesh, router-major. vc[g] and
	// outState[g] are the input/output records of global flat VC
	// g = (node*NumPorts+port)*VCs+vc; bufs holds the per-VC flit rings
	// at bufs[g*BufDepth : (g+1)*BufDepth]. Routers hold subslice views.
	vc       []vcState
	bufs     []Flit
	outState []outVCState

	// links is the flat link table, indexed by node*NumPorts+port. One
	// packed 16-byte record per port keeps the downstream half (node/port,
	// read when the port sends) and the upstream half (upNode/target, read
	// when the port frees a slot) on a single cache line, so the SA
	// traversal path pays one load instead of four scattered ones.
	links []linkInfo

	// routeTable (nodes×nodes next-hop ports, non-nil only with faults)
	// replaces algorithmic route computation on faulted meshes. See
	// fault.go.
	routeTable []int8

	// Per-region V/F island state (see island.go): islandOf maps node id
	// to island index (-1 for none); islandAcc/islandRun are the
	// per-island fractional clock accumulators and this-cycle run flags.
	islands   []Island
	islandOf  []int16
	islandAcc []float64
	islandRun []bool

	// shards are the mesh's row shards, in ascending node id order. They
	// hold the active and per-stage bitmasks over node ids (bit set: the
	// node holds work; a router has RC, VA or SA work), whose counters make
	// the quiescence check O(1) — iterating set bits in word order visits
	// nodes in ascending id — and the staged events: those produced
	// during cycle t are applied during cycle t+1, modelling one-cycle
	// link and credit delays.
	shards []shard

	// lend is the second-core protocol (see SetSpare).
	lend lender

	// quiet is Quiescent() as of the end of the last Step, kept so that a
	// quiescent Step reads one flag: a quiescent Step changes nothing it
	// depends on, and NewPacket, the only other way work arrives, clears
	// it.
	quiet bool

	// packetFree recycles Packet objects on tail ejection, keeping the
	// steady-state hot path allocation-free. Flits are plain values and
	// need no pooling.
	packetFree []*Packet

	// OnArrive, if non-nil, is invoked when a packet's tail flit is
	// ejected. The cycle argument is the ejection cycle. The packet is
	// recycled when the callback returns: implementations must copy any
	// fields they keep.
	OnArrive func(p *Packet, cycle int64)

	nextPacketID int64

	// cycle is the network clock. It and the fields around it are written
	// by the serial part of every Step, so they sit apart from what the
	// helper reads (see lender).
	cycle int64

	// Counters for conservation checks and throughput statistics (the
	// shards count the injected flits).
	packetsQueued  int64
	packetsArrived int64
	flitsEjected   int64
}

// NewNetwork builds a mesh network from cfg. It returns an error if the
// configuration is invalid.
func NewNetwork(cfg Config) (*Network, error) {
	return NewNetworkWithFaults(cfg, nil)
}

// NewNetworkWithFaults builds a mesh with the given directed channels
// masked out of the link table and a fault-aware minimal route table
// installed in place of algorithmic routing (see fault.go). It returns
// an error if any fault is malformed or the surviving channels leave any
// node pair disconnected. An empty fault list is exactly NewNetwork.
//
// Construction is two steps: allocate the flat arrays and wire what a run
// never changes (views, coordinates, the link and route tables), then
// Reset, which is the only code that writes initial run state.
func NewNetworkWithFaults(cfg Config, faults []Link) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("noc: invalid config: %w", err)
	}
	if err := validateFaults(cfg, faults); err != nil {
		return nil, err
	}
	nodes := cfg.Nodes()
	n := &Network{cfg: cfg}
	n.shards = newShards(n)
	total := NumPorts * cfg.VCs
	depth := cfg.BufDepth

	n.vc = make([]vcState, nodes*total)
	n.bufs = make([]Flit, nodes*total*depth)
	n.outState = make([]outVCState, nodes*total)

	n.routers = make([]Router, nodes)
	for id := 0; id < nodes; id++ {
		r := &n.routers[id]
		*r = Router{
			id:       NodeID(id),
			net:      n,
			vcs:      cfg.VCs,
			depth:    depth,
			vc:       n.vc[id*total : (id+1)*total],
			bufs:     n.bufs[id*total*depth : (id+1)*total*depth],
			outState: n.outState[id*total : (id+1)*total],
			linkBase: id * NumPorts,
			sh:       &n.shards[n.shardOf(id)],
		}
		r.lid = id - r.sh.lo
	}
	n.sources = newSources(n.routers, cfg.VCs)

	n.links = make([]linkInfo, nodes*NumPorts)
	for id := 0; id < nodes; id++ {
		x, y := cfg.Coord(NodeID(id))
		li := id * NumPorts
		n.links[li+int(PortLocal)] = linkInfo{node: -1, target: -int32(id) - 1, upNode: int32(id), shard: int8(n.shardOf(id))}
		for p := PortNorth; p <= PortWest; p++ {
			dx, dy := p.delta()
			if !cfg.InMesh(x+dx, y+dy) {
				n.links[li+int(p)] = linkInfo{node: -1, upNode: -1, shard: -1}
				continue
			}
			nb := cfg.Node(x+dx, y+dy)
			// A slot freed in this router's input port p returns a credit
			// to nb's output port facing it.
			n.links[li+int(p)] = linkInfo{
				node:   int32(nb),
				port:   int8(p.Opposite()),
				target: int32(int(nb)*NumPorts + int(p.Opposite())),
				upNode: int32(nb),
				shard:  int8(n.shardOf(int(nb))),
			}
		}
	}

	if len(faults) > 0 {
		n.maskFaults(faults)
		if err := n.buildRouteTable(); err != nil {
			return nil, err
		}
	}

	n.Reset()
	return n, nil
}

// Reset returns the network to exactly the state its constructor leaves
// it in: cycle 0, every buffer, credit, allocator pointer, counter and
// activity record as built, nothing staged or queued, no islands, no
// OnArrive, no Spare (a borrowed slot is given back and the helper let
// go first). It may be called in any state, including on a
// run abandoned mid-flight, whose flits and packets are dropped. What a
// run cannot change stays: the flat arrays themselves, the link and route
// tables (and so the fault set), and the capacity the event buffers, the
// source queues and the packet free list have grown to — which is what
// makes a reset network cheaper than a new one and otherwise
// indistinguishable from it.
func (n *Network) Reset() {
	n.SetSpare(nil)
	n.resetLend()
	depth := n.cfg.BufDepth
	n.cycle = 0
	for i := range n.vc {
		n.vc[i] = vcState{outVC: -1}
	}
	clear(n.bufs) // stale flits pin their packets
	for i := range n.outState {
		n.outState[i] = outVCState{owner: -1, credits: int32(depth)}
	}
	vcBits := uint64(1)<<uint(n.cfg.VCs) - 1
	for id := range n.routers {
		n.routers[id].reset(vcBits)
	}
	for _, s := range n.sources {
		s.reset(depth)
	}

	n.islands, n.islandOf, n.islandAcc, n.islandRun = nil, nil, nil, nil

	for i := range n.shards {
		n.shards[i].reset()
	}

	n.quiet = true
	n.OnArrive = nil
	n.nextPacketID = 0
	n.packetsQueued, n.packetsArrived, n.flitsEjected = 0, 0, 0
}

// Cycle returns the current network clock cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Quiescent reports whether the network holds no work at all: no flits
// buffered or in flight, no staged credits, and no source with queued or
// partially sent packets. A quiescent Step only advances the clock.
func (n *Network) Quiescent() bool {
	p := n.cycle & 1
	for i := range n.shards {
		if !n.shards[i].idle(p) {
			return false
		}
	}
	return true
}

// getPacket returns a recycled Packet or a fresh one.
func (n *Network) getPacket() *Packet {
	if k := len(n.packetFree); k > 0 {
		p := n.packetFree[k-1]
		n.packetFree = n.packetFree[:k-1]
		return p
	}
	return new(Packet)
}

// NewPacket creates a packet from src to dst stamped with the current
// cycle and the caller-supplied real time (ns), and appends it to the
// source queue of src. dimOrder selects XY (0) or YX (1) traversal for
// O1TURN routing; it is ignored for plain XY/YX.
//
// The returned packet is owned by the network and recycled once its tail
// flit is ejected (after OnArrive returns): callers that keep per-packet
// data beyond delivery must copy the fields they need.
func (n *Network) NewPacket(src, dst NodeID, nowNs float64, dimOrder uint8) *Packet {
	if src == dst {
		panic("noc: packet to self")
	}
	n.nextPacketID++
	p := n.getPacket()
	*p = Packet{
		ID:          n.nextPacketID,
		Src:         src,
		Dst:         dst,
		Size:        n.cfg.PacketSize,
		CreateCycle: n.cycle,
		CreateTime:  nowNs,
		DimOrder:    dimOrder,
	}
	s := n.sources[src]
	s.queue.Push(p)
	n.quiet = false
	if !s.active {
		s.router.sh.activateSource(s)
	}
	n.packetsQueued++
	return p
}

// Step advances the network by one clock cycle: every row shard delivers
// the flits and credits staged for it and runs its router pipelines
// stage-major over its active sets, letting every source with pending
// packets inject at most one flit, and last cycle's ejections complete.
// When the network is quiescent the whole call is the skip-ahead fast
// path: the clock advances and nothing else runs.
func (n *Network) Step() {
	n.cycle++
	if n.islandRun != nil {
		n.advanceIslands()
	}
	if n.quiet {
		if n.lend.held {
			n.lendCycle()
		}
		return
	}
	cycle := n.cycle

	// Last cycle's ejections complete at the end of this one (eject):
	// they touch no router, only their packets, so where in the cycle
	// they run changes nothing, and a forked cycle runs them while the
	// helper is still stepping.
	if n.lend.spare != nil && n.lendCycle() {
		n.fork(cycle)
	} else {
		for i := range n.shards {
			n.shards[i].step(cycle)
		}
		n.eject(cycle)
	}
	n.quiet = n.Quiescent()
}

// eject completes last cycle's ejections: it counts the flits and hands
// every packet whose tail left to OnArrive, then recycles it. The SA
// sweeps staged each shard's tails in ascending router id, and the shards
// hold ascending id ranges, so packets arrive in ascending router id.
func (n *Network) eject(cycle int64) {
	p := (cycle - 1) & 1
	for i := range n.shards {
		s := &n.shards[i]
		n.flitsEjected += s.ejected[p]
		s.ejected[p] = 0
		for _, pk := range s.tails[p] {
			pk.ArriveCycle = cycle
			n.packetsArrived++
			if n.OnArrive != nil {
				n.OnArrive(pk, cycle)
			}
			n.packetFree = append(n.packetFree, pk)
		}
		s.tails[p] = s.tails[p][:0]
	}
}

// returnCredit restores one credit to output VC credVC of the flat output
// port credTarget (= node*NumPorts+port), keeping the owning router's
// credit mask in sync.
func (n *Network) returnCredit(credTarget int32, credVC int8) {
	o := &n.outState[int(credTarget)*n.cfg.VCs+int(credVC)]
	o.credits++
	if o.credits == 1 {
		r := &n.routers[int(credTarget)/NumPorts]
		r.creditMask[int(credTarget)%NumPorts] |= 1 << uint(credVC)
		// A 0->1 transition may restore SA eligibility for the input VC
		// holding this output VC (if it still has flits to send).
		if owner := o.owner; owner >= 0 && r.vc[owner].bufLen > 0 {
			r.saEligMask[int(owner)/r.vcs] |= 1 << uint(int(owner)%r.vcs)
		}
	} else if o.credits > int32(n.cfg.BufDepth) {
		panic("noc: credit overflow (more credits than buffer slots)")
	}
}

// InFlight returns the number of flits currently inside the network:
// buffered in routers or in flight on links (including flits owed by the
// sources' partially sent packets and queued packets).
func (n *Network) InFlight() int64 {
	var total int64
	p := n.cycle & 1
	for i := range n.shards {
		s := &n.shards[i]
		total += s.ejected[p]
		for _, o := range s.out[p] {
			total += int64(len(o.links) + len(o.carried))
		}
	}
	for i := range n.shards {
		s := &n.shards[i]
		for w, word := range s.routerWords {
			for base := s.lo + w*64; word != 0; word &= word - 1 {
				total += int64(n.routers[base+bits.TrailingZeros64(word)].occupancy())
			}
		}
		for w, word := range s.sourceWords {
			for base := s.lo + w*64; word != 0; word &= word - 1 {
				total += n.sources[base+bits.TrailingZeros64(word)].pendingFlits(&n.cfg)
			}
		}
	}
	return total
}

// SourceBacklog returns the total number of packets waiting in all source
// queues (excluding packets currently being serialized). It is the primary
// saturation signal: under sustained overload the backlog grows without
// bound.
func (n *Network) SourceBacklog() int64 {
	var total int64
	for _, s := range n.sources {
		total += int64(s.queue.Len())
	}
	return total
}

// Stats returns cumulative packet and flit counters: packets queued,
// packets arrived, flits injected into routers, flits ejected.
func (n *Network) Stats() (queued, arrived, injected, ejected int64) {
	for i := range n.shards {
		injected += n.shards[i].flitsInjected
	}
	return n.packetsQueued, n.packetsArrived, injected, n.flitsEjected
}

// Activity returns the aggregate activity of all routers plus the elapsed
// cycle count.
func (n *Network) Activity() NetworkActivity {
	var agg NetworkActivity
	for id := range n.routers {
		agg.RouterActivity.Add(n.routers[id].Activity)
	}
	agg.Cycles = n.cycle
	return agg
}

// CheckInvariants panics if any router's credit or VC state, or the
// shards' active-set bookkeeping, is inconsistent. Tests call it
// liberally; production code does not need to.
func (n *Network) CheckInvariants() {
	if n.quiet && !n.Quiescent() {
		panic("noc: network marked quiet holds work")
	}
	for id := range n.routers {
		n.routers[id].checkInvariants()
	}
	for i := range n.shards {
		n.shards[i].checkInvariants()
	}
}

// Drain advances the network until all injected traffic has been delivered
// or maxCycles elapse; it reports whether the network fully drained.
// Callers must stop generating new packets first.
func (n *Network) Drain(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if n.InFlight() == 0 {
			return true
		}
		n.Step()
	}
	return n.InFlight() == 0
}
