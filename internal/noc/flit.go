package noc

// NodeID identifies a node (router plus attached processing element) in the
// mesh. Nodes are numbered row-major: id = y*Width + x.
type NodeID int

// Packet is a multi-flit message. A packet of Size flits is serialized into
// one head flit, Size-2 body flits and one tail flit (a single-flit packet
// has one flit that is both head and tail).
//
// The timestamps support the paper's two delay metrics: CreateCycle is in
// network clock cycles (latency "in cycles", Fig. 2a) while CreateTime is in
// nanoseconds of simulated real time (delay "in ns", Fig. 2b), accumulated
// by the engine at the then-current network frequency.
type Packet struct {
	ID   int64
	Src  NodeID
	Dst  NodeID
	Size int

	// CreateCycle is the network cycle at which the packet was generated
	// and entered the (unbounded) source queue.
	CreateCycle int64
	// CreateTime is the simulated real time, in nanoseconds, at generation.
	CreateTime float64
	// InjectCycle is the network cycle at which the head flit left the
	// source queue and entered the router's local input port.
	InjectCycle int64
	// ArriveCycle is the network cycle at which the tail flit was ejected.
	ArriveCycle int64

	// DimOrder selects the dimension traversal order for routing:
	// 0 routes X first (XY), 1 routes Y first (YX). It is chosen at packet
	// creation (per-packet random for O1TURN).
	DimOrder uint8

	// Hops counts router-to-router link traversals, filled in during
	// transit; useful for statistics and tests.
	Hops int
}

// Flit is the flow-control unit. Flits belong to exactly one packet and are
// delivered in order within a virtual channel.
//
// Flits are plain 16-byte values, stored by value in the VC buffers and in
// the staged link events: copying one is cheaper than chasing a pointer to
// it, and value storage is what lets the stage-major engine keep all flit
// state in flat contiguous arrays with no free lists.
type Flit struct {
	Packet *Packet
	Head   bool // first flit of the packet
	Tail   bool // last flit of the packet
}

// linkEvent records one link (or injection) traversal staged during cycle
// t and applied at the start of cycle t+1. The flit itself has already
// been written into the destination VC's ring slot by the sender — the
// sending stage is that slot's only writer in the cycle, since exactly one
// flit per (router, input port) can arrive per cycle — so the event
// carries only the arrival notice and the piggybacked credit for the
// freed upstream slot. Targets are precomputed at staging time from the
// flat link tables, so delivery never chases neighbour pointers.
//
// node/port/vc locate the arrival: input port `port`, VC `vc` of router
// `node`. credNode/credTarget/credVC locate the credit: credNode is the
// upstream node id (< 0 means no credit, used for source injections,
// which track their own credits), and credTarget >= 0 is the flat
// output-port index node*NumPorts+port of the upstream router (the credit
// lands at outState[credTarget*VCs+credVC]) while credTarget < 0 means
// the upstream feeder is the injection source of node -credTarget-1.
//
// An event whose arrival and credit belong to different row shards is
// staged twice: with no credit (credNode < 0, see arrivalOnly) for the
// arrival's shard, and whole on the credit's shard's list of credits,
// where only its credit half is read.
//
// The six fields are packed into one word: staging and draining these
// events is the hottest memory traffic in the engine (one per flit-hop
// per cycle), and a single 8-byte store halves it against the naive
// 16-byte struct. The field widths bound the mesh at levMaxNodes nodes
// (Config.Validate enforces it) and ride on the existing VCs <= 12 cap.
type linkEvent uint64

const (
	// linkEvent bit layout, LSB up: node(14) port(3) vc(6) credVC(6)
	// credNode+1(15) credTarget+levCredBias(18).
	levNodeBits        = 14
	levMaxNodes        = 1 << levNodeBits
	levPortShift       = levNodeBits
	levVCShift         = levPortShift + 3
	levCredVCShift     = levVCShift + 6
	levCredNodeShift   = levCredVCShift + 6
	levCredTargetShift = levCredNodeShift + 15
	// levCredBias shifts credTarget (>= -nodes-1) into unsigned range.
	levCredBias = levMaxNodes + 1
)

// makeLinkEvent packs an arrival notice (node, port, vc) and its
// piggybacked credit (credNode, credTarget, credVC; credNode < 0 for
// none) into one event word.
func makeLinkEvent(node int32, port, vc int8, credNode, credTarget int32, credVC int8) linkEvent {
	return linkEvent(uint64(node) |
		uint64(port)<<levPortShift |
		uint64(vc)<<levVCShift |
		uint64(credVC)<<levCredVCShift |
		uint64(credNode+1)<<levCredNodeShift |
		uint64(credTarget+levCredBias)<<levCredTargetShift)
}

func (e linkEvent) node() int32       { return int32(e & (levMaxNodes - 1)) }
func (e linkEvent) port() int8        { return int8(e >> levPortShift & 7) }
func (e linkEvent) vc() int8          { return int8(e >> levVCShift & 63) }
func (e linkEvent) credVC() int8      { return int8(e >> levCredVCShift & 63) }
func (e linkEvent) credNode() int32   { return int32(e>>levCredNodeShift&(1<<15-1)) - 1 }
func (e linkEvent) credTarget() int32 { return int32(e>>levCredTargetShift&(1<<18-1)) - levCredBias }

// arrivalOnly returns e without its credit (credNode -1).
func (e linkEvent) arrivalOnly() linkEvent { return e &^ ((1<<15 - 1) << levCredNodeShift) }
