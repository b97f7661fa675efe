package noc

import (
	"fmt"
	"math/bits"
)

// vcStage is the pipeline state of an input virtual channel.
type vcStage uint8

const (
	// vcIdle: no packet occupies the VC.
	vcIdle vcStage = iota
	// vcRouting: a head flit is at the front and awaits route computation.
	vcRouting
	// vcWaitVC: route computed, waiting for a downstream VC grant.
	vcWaitVC
	// vcActive: output VC allocated, flits compete for the switch.
	vcActive
)

// vcState is the complete pipeline record of one input VC, packed into 16
// bytes so a single cache-line load answers everything the stage passes ask
// (the previous layout spread this over four parallel slices and the SA
// eligibility check paid one load per slice). All input VCs of the whole
// mesh live in one flat network-owned array, router-major, so a stage pass
// over the active-router bitmask walks memory mostly forward.
type vcState struct {
	// ready is the earliest cycle for the VC's next pipeline step.
	ready int64
	// port is the routed output port (valid from vcWaitVC onwards).
	port int8
	// outVC is the allocated downstream VC (valid in vcActive, else -1).
	outVC int8
	// stage is the pipeline stage (vcIdle..vcActive).
	stage vcStage
	// bufHead/bufLen locate the VC's flit ring inside the network's flat
	// bufs array. Config.Validate caps BufDepth at 255 to keep them bytes.
	bufHead uint8
	bufLen  uint8
	// wrHead is the ring slot the next arriving flit is written to. It is
	// owned by the upstream writer (the neighbouring router's SA stage, or
	// the local source), which stores the flit directly into the ring
	// during its compute phase and stages only a small arrival notice; the
	// VC's owner commits bufLen (and never touches wrHead) the next cycle.
	// Credit flow guarantees at most one uncommitted arrival per input
	// port per cycle, so the split-cursor ring is single-writer,
	// single-reader with no overlapping field access. A flit from another
	// row shard is stored by the owner's shard itself, at delivery (see
	// shard).
	wrHead uint8
}

// outVCState pairs the downstream credit count of an output VC with the
// flat input VC index that currently owns it (-1 when free).
type outVCState struct {
	owner int32
	// credits is the number of free slots in the downstream input buffer.
	// Ejection (local) output VCs are replenished implicitly: the PE
	// consumes flits at link rate, so their credits stay at BufDepth.
	credits int32
}

// Router is one input-queued virtual-channel router of the mesh. The bulk
// per-VC state lives in flat network-owned arrays (vc/bufs/outState); the
// Router holds subslice views over its own records plus the allocator
// round-robin pointers and the per-stage occupancy bitmasks that drive the
// stage-major engine.
type Router struct {
	id  NodeID
	net *Network

	vcs   int // cached Config.VCs
	depth int // cached Config.BufDepth

	// vc[i] is the record of local flat input VC i = port*vcs+vc; a
	// subslice of net.vc starting at global index id*NumPorts*vcs.
	vc []vcState
	// bufs holds the flit rings of the local input VCs: VC i's ring is
	// bufs[i*depth : (i+1)*depth]. Subslice of net.bufs.
	bufs []Flit
	// outState[o] is the record of local output VC o = port*vcs+vc.
	// Subslice of net.outState.
	outState []outVCState

	// linkBase is id*NumPorts, the router's row in the network's flat
	// link table (Network.links).
	linkBase int

	// sh is the row shard the router belongs to and lid its index there
	// (id - sh.lo), its bit in the shard's bitsets.
	sh  *shard
	lid int

	// Round-robin priority pointers for the allocators.
	vaPri    [NumPorts]int // per output port, rotates over flat input VC index
	saInPri  [NumPorts]int // per input port, rotates over its VCs
	saOutPri [NumPorts]int // per output port, rotates over input ports

	// Stage population counters let a stage pass skip the router cheaply;
	// the per-input-port bitmasks (bit v set when VC v of the port is in
	// that stage) let it visit only occupied VCs. Config.Validate caps VCs
	// at 12, so each mask is a single word.
	nRouting    int
	nWaitVC     int
	nActive     int
	routingMask [NumPorts]uint64
	waitMask    [NumPorts]uint64
	activeMask  [NumPorts]uint64

	// creditMask mirrors the credit counters: bit v of word p is set while
	// outState[p*vcs+v].credits > 0. SA eligibility tests this
	// register-hot word instead of loading the counter's cache line; the
	// counters stay authoritative and the mask is updated on every 0<->1
	// transition (SA decrements in compute, credit returns in delivery or
	// the eject phase).
	creditMask [NumPorts]uint64

	// saEligMask caches full SA eligibility per input port: bit v is set
	// while input VC v is in vcActive with a buffered flit and a credit
	// available on its allocated output VC. The SA input phase rotates
	// this word and takes the first ready bit instead of probing per-VC
	// state; the mask is updated at the transitions that change any of
	// the three conditions (VA grant, SA send, arrival commit, credit
	// return).
	saEligMask [NumPorts]uint64

	// buffered is the total number of flits held in input VC buffers;
	// it makes occupancy O(1) for the quiescence check.
	buffered int

	// active reports membership in the network's active-router bitmask.
	active bool

	// Activity is the per-router event accumulator for power estimation.
	Activity RouterActivity
}

// reset returns the router to its as-built state, keeping what
// construction wired: identity and the views into the network's flat
// arrays. Every other field is zeroed by omission, so a field added later
// is reset unless it is listed here.
// vcBits has one bit set per VC: every output VC starts with credits.
func (r *Router) reset(vcBits uint64) {
	*r = Router{
		id: r.id, net: r.net,
		vcs: r.vcs, depth: r.depth,
		vc: r.vc, bufs: r.bufs, outState: r.outState,
		linkBase: r.linkBase,
		sh:       r.sh, lid: r.lid,
	}
	for p := range r.creditMask {
		r.creditMask[p] = vcBits
	}
}

// setStageBit / clearStageBit keep one of its shard's per-stage word
// sets (rcWords/vaWords/saWords) in sync with this router's stage counter
// at a 0<->nonzero transition.
func (r *Router) setStageBit(words []uint64) {
	words[r.lid>>6] |= 1 << uint(r.lid&63)
}

func (r *Router) clearStageBit(words []uint64) {
	words[r.lid>>6] &^= 1 << uint(r.lid&63)
}

// hasWork reports whether the router holds any flits or any input VC in a
// non-idle pipeline stage; an idle router's step is a guaranteed no-op, so
// the engine drops it from the active set.
func (r *Router) hasWork() bool {
	return r.buffered > 0 || r.nRouting+r.nWaitVC+r.nActive > 0
}

// commitArrival is called by the delivery phase when a flit staged last
// cycle (already sitting in the ring slot its writer stored it to)
// becomes visible on input port p.
func (r *Router) commitArrival(p Port, vc int, cycle int64) {
	i := int(p)*r.vcs + vc
	st := &r.vc[i]
	if int(st.bufLen) == r.depth {
		panic(fmt.Sprintf("noc: buffer overflow at router %d port %s vc %d (flow control violated)", r.id, p, vc))
	}
	wasEmpty := st.bufLen == 0
	st.bufLen++
	r.buffered++
	r.Activity.BufWrites++
	if p == PortLocal {
		r.Activity.InjectFlits++
	}
	// A head flit arriving at the front of an idle VC starts the pipeline
	// on the next cycle; a flit refilling an empty active VC makes it SA-
	// eligible again if its output VC has a credit.
	if wasEmpty {
		if st.stage == vcIdle {
			if !r.bufs[i*r.depth+int(st.bufHead)].Head {
				panic("noc: body flit arrived at idle VC without a head")
			}
			st.stage = vcRouting
			st.ready = cycle + 1
			r.nRouting++
			r.routingMask[p] |= 1 << uint(vc)
			if r.nRouting == 1 {
				r.setStageBit(r.sh.rcWords)
			}
		} else if st.stage == vcActive && r.creditMask[st.port]&(1<<uint(st.outVC)) != 0 {
			r.saEligMask[p] |= 1 << uint(vc)
		}
	}
	if !r.active {
		r.sh.activateRouter(r)
	}
}

// stageRC performs route computation for all input VCs that are ready.
func (r *Router) stageRC(cycle int64) {
	net := r.net
	for p := 0; p < NumPorts; p++ {
		m := r.routingMask[p]
		if m == 0 {
			continue
		}
		base := p * r.vcs
		for ; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			i := base + v
			st := &r.vc[i]
			if st.ready > cycle || st.bufLen == 0 {
				continue
			}
			head := r.bufs[i*r.depth+int(st.bufHead)]
			st.port = int8(net.routePort(r.id, head.Packet))
			st.stage = vcWaitVC
			st.ready = cycle + 1
			r.nRouting--
			r.nWaitVC++
			r.routingMask[p] &^= 1 << uint(v)
			r.waitMask[p] |= 1 << uint(v)
		}
	}
	if r.nRouting == 0 {
		r.clearStageBit(r.sh.rcWords)
	}
	if r.nWaitVC > 0 {
		r.setStageBit(r.sh.vaWords)
	}
}

// stageVA performs separable input-first round-robin VC allocation: each
// waiting input VC requests its routed output port; each output port grants
// its free VCs (in index order) to requesters in round-robin order starting
// at the priority pointer.
//
// Config.Validate keeps NumPorts*VCs within one word, so requester sets
// are uint64 masks over flat input VC indices and the round-robin scan is a
// rotate + trailing-zeros loop that visits requesters in exactly the order
// a linear scan would. Every requester encountered is granted until the
// free list runs out, so a single rotation by the initial priority pointer
// suffices.
func (r *Router) stageVA(cycle int64) {
	vcs := r.vcs
	total := NumPorts * vcs
	var req [NumPorts]uint64
	var anyOps uint32
	for p := 0; p < NumPorts; p++ {
		m := r.waitMask[p]
		if m == 0 {
			continue
		}
		base := p * vcs
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			st := &r.vc[i]
			if st.ready > cycle {
				continue
			}
			op := uint(st.port)
			req[op] |= 1 << uint(i)
			anyOps |= 1 << op
		}
	}
	for ; anyOps != 0; anyOps &= anyOps - 1 {
		op := bits.TrailingZeros32(anyOps)
		obase := op * vcs
		var free [64]int8
		nfree := 0
		for ov := 0; ov < vcs; ov++ {
			if r.outState[obase+ov].owner < 0 {
				free[nfree] = int8(ov)
				nfree++
			}
		}
		if nfree == 0 {
			continue
		}
		pri := r.vaPri[op]
		rot := req[op]>>uint(pri) | req[op]<<uint(total-pri)
		rot &= uint64(1)<<uint(total) - 1
		granted := 0
		for ; rot != 0 && granted < nfree; rot &= rot - 1 {
			want := pri + bits.TrailingZeros64(rot)
			if want >= total {
				want -= total
			}
			ip := want / vcs
			iv := want - ip*vcs
			ov := int(free[granted])
			granted++
			r.outState[obase+ov].owner = int32(want)
			st := &r.vc[want]
			st.outVC = int8(ov)
			st.stage = vcActive
			st.ready = cycle + 1
			r.nWaitVC--
			r.nActive++
			r.waitMask[ip] &^= 1 << uint(iv)
			r.activeMask[ip] |= 1 << uint(iv)
			// The granted VC holds at least the head flit (nothing
			// dequeues before vcActive), so SA eligibility only hinges
			// on a credit.
			if r.creditMask[op]&(1<<uint(ov)) != 0 {
				r.saEligMask[ip] |= 1 << uint(iv)
			}
			r.Activity.VCAllocs++
			r.vaPri[op] = want + 1
			if r.vaPri[op] >= total {
				r.vaPri[op] = 0
			}
		}
	}
	if r.nWaitVC == 0 {
		r.clearStageBit(r.sh.vaWords)
	}
	if r.nActive > 0 {
		r.setStageBit(r.sh.saWords)
	}
}

// stageSA performs two-phase round-robin switch allocation and, for the
// winners, switch traversal: the flit is dequeued, staged onto the output
// link (arriving downstream next cycle) and a credit is staged upstream.
// The link pass reads the network's flat link tables instead of chasing
// neighbour pointers.
func (r *Router) stageSA(cycle int64) {
	vcs := r.vcs
	depth := r.depth
	widthMask := uint64(1)<<uint(vcs) - 1
	// Input phase: each input port nominates one eligible VC and requests
	// its output port. Requests are collected as bitmasks (NumPorts ≤ 5
	// bits) so the output phase can resolve each grant with bit tricks
	// instead of a NumPorts×NumPorts scan.
	var reqOps uint32          // output ports with at least one requester
	var reqIn [NumPorts]uint32 // per output port: requesting input ports
	var saInWin [NumPorts]int8 // winning VC of the input phase, per port
	for p := 0; p < NumPorts; p++ {
		em := r.saEligMask[p]
		if em == 0 {
			continue
		}
		base := p * vcs
		if em&(em-1) == 0 {
			// One eligible VC: it wins regardless of the round-robin
			// pointer, no rotation needed (the overwhelmingly common
			// case — a port streams one packet at a time).
			v := bits.TrailingZeros64(em)
			st := &r.vc[base+v]
			if st.ready <= cycle {
				saInWin[p] = int8(v)
				out := uint(st.port)
				reqOps |= 1 << out
				reqIn[out] |= 1 << uint(p)
			}
			continue
		}
		// Rotate the eligibility mask right by the round-robin pointer so
		// that trailing-zeros iteration visits VCs in priority order. The
		// mask already encodes buffered-flit and credit availability; only
		// the ready stamp (excluding VCs granted by VA this very cycle)
		// still needs the per-VC record.
		pri := r.saInPri[p]
		rot := (em>>uint(pri) | em<<uint(vcs-pri)) & widthMask
		for ; rot != 0; rot &= rot - 1 {
			v := pri + bits.TrailingZeros64(rot)
			if v >= vcs {
				v -= vcs
			}
			st := &r.vc[base+v]
			if st.ready > cycle {
				continue
			}
			saInWin[p] = int8(v)
			out := uint(st.port)
			reqOps |= 1 << out
			reqIn[out] |= 1 << uint(p)
			break
		}
	}
	if reqOps == 0 {
		return
	}
	net := r.net
	sh := r.sh
	own := &sh.out[cycle&1][sh.index]
	links := own.links
	// Output phase + traversal, in ascending output-port order. Each
	// requested port grants the first requesting input port at or after
	// its round-robin pointer: rotating the request mask right by the
	// pointer makes that a single trailing-zeros count.
	for ; reqOps != 0; reqOps &= reqOps - 1 {
		op := bits.TrailingZeros32(reqOps)
		m := reqIn[op]
		var ip int
		if m&(m-1) == 0 {
			// One requester: wins regardless of the pointer.
			ip = bits.TrailingZeros32(m)
		} else {
			pri := r.saOutPri[op]
			rot := (m>>uint(pri) | m<<uint(NumPorts-pri)) & (1<<NumPorts - 1)
			ip = pri + bits.TrailingZeros32(rot)
			if ip >= NumPorts {
				ip -= NumPorts
			}
		}
		v := int(saInWin[ip])
		i := ip*vcs + v
		st := &r.vc[i]

		flit := r.bufs[i*depth+int(st.bufHead)]
		if h := int(st.bufHead) + 1; h == depth {
			st.bufHead = 0
		} else {
			st.bufHead = uint8(h)
		}
		st.bufLen--
		r.buffered--
		r.Activity.BufReads++
		r.Activity.XbarTraversals++
		r.Activity.SAAllocs++
		r.saInPri[ip] = v + 1
		if r.saInPri[ip] >= vcs {
			r.saInPri[ip] = 0
		}
		r.saOutPri[op] = ip + 1
		if r.saOutPri[op] >= NumPorts {
			r.saOutPri[op] = 0
		}

		outVC := int(st.outVC)
		o := op*vcs + outVC

		// The freed buffer slot returns upstream as a credit, riding the
		// same staged event as the flit (or the eject).
		up := &net.links[r.linkBase+ip]
		if up.upNode < 0 {
			panic("noc: credit towards a missing neighbour")
		}

		// Send the flit: ejection to the local PE, otherwise on the link.
		if Port(op) == PortLocal {
			r.Activity.EjectFlits++
			sh.eject(cycle, flit, up, v)
		} else {
			r.Activity.LinkFlits++
			os := &r.outState[o]
			os.credits--
			if os.credits == 0 {
				r.creditMask[op] &^= 1 << uint(outVC)
			}
			lk := &net.links[r.linkBase+op]
			dest := lk.node
			if dest < 0 {
				panic(fmt.Sprintf("noc: router %d sent a flit off-mesh through port %s", r.id, Port(op)))
			}
			// Within the shard, store the flit directly into the
			// destination VC's ring slot (this stage is the slot's only
			// writer this cycle; the owner commits it next cycle) and stage
			// the arrival+credit notice. Anything crossing into the other
			// shard takes the out-of-line path (see shard.cross), which
			// keeps this loop as small as a one-shard mesh needs.
			dp := int(lk.port)
			ev := makeLinkEvent(dest, int8(dp), int8(outVC), up.upNode, up.target, int8(v))
			if lk.shard == up.shard && int(lk.shard) == sh.index {
				g := (int(dest)*NumPorts+dp)*vcs + outVC
				dst := &net.vc[g]
				slot := int(dst.wrHead)
				net.bufs[g*depth+slot] = flit
				if slot++; slot == depth {
					slot = 0
				}
				dst.wrHead = uint8(slot)
				links = append(links, ev)
			} else if sh.cross(cycle, lk, up, flit, ev) {
				links = append(links, ev.arrivalOnly())
			}
			if flit.Head {
				flit.Packet.Hops++
			}
		}

		// Tail departure releases the input VC and the output VC.
		if flit.Tail {
			r.outState[o].owner = -1
			st.stage = vcIdle
			st.outVC = -1
			r.nActive--
			r.activeMask[ip] &^= 1 << uint(v)
			r.saEligMask[ip] &^= 1 << uint(v)
			// If the next packet's head is already buffered behind the
			// tail, restart the pipeline for it.
			if st.bufLen > 0 {
				next := r.bufs[i*depth+int(st.bufHead)]
				if !next.Head {
					panic("noc: flit following a tail is not a head")
				}
				st.stage = vcRouting
				st.ready = cycle + 1
				r.nRouting++
				r.routingMask[ip] |= 1 << uint(v)
			}
		} else if st.bufLen == 0 || r.creditMask[op]&(1<<uint(outVC)) == 0 {
			// The sender stays active but lost a precondition: drained
			// buffer, or the last credit of its output VC just went.
			r.saEligMask[ip] &^= 1 << uint(v)
		}
	}
	own.links = links
	if r.nActive == 0 {
		r.clearStageBit(sh.saWords)
	}
	if r.nRouting > 0 {
		r.setStageBit(sh.rcWords)
	}
}

// occupancy returns the total number of flits buffered in the router.
func (r *Router) occupancy() int { return r.buffered }

// checkInvariants panics if derived state is inconsistent; used by tests
// via Network.CheckInvariants.
func (r *Router) checkInvariants() {
	var nR, nW, nA int
	var mR, mW, mA, mE [NumPorts]uint64
	buffered := 0
	for p := 0; p < NumPorts; p++ {
		for v := 0; v < r.vcs; v++ {
			i := p*r.vcs + v
			st := &r.vc[i]
			buffered += int(st.bufLen)
			switch st.stage {
			case vcRouting:
				nR++
				mR[p] |= 1 << uint(v)
			case vcWaitVC:
				nW++
				mW[p] |= 1 << uint(v)
			case vcActive:
				nA++
				mA[p] |= 1 << uint(v)
				o := int(st.port)*r.vcs + int(st.outVC)
				if r.outState[o].owner != int32(i) {
					panic("noc: active input VC does not own its output VC")
				}
				if st.bufLen > 0 && r.outState[o].credits > 0 {
					mE[p] |= 1 << uint(v)
				}
			}
		}
	}
	if nR != r.nRouting || nW != r.nWaitVC || nA != r.nActive {
		panic("noc: stage population counters out of sync")
	}
	if mR != r.routingMask || mW != r.waitMask || mA != r.activeMask {
		panic("noc: per-port stage occupancy masks out of sync")
	}
	if mE != r.saEligMask {
		panic("noc: SA eligibility mask out of sync")
	}
	if buffered != r.buffered {
		panic("noc: buffered flit counter out of sync")
	}
	if r.hasWork() && !r.active {
		panic("noc: router with work is not in the active set")
	}
	for p := 0; p < NumPorts; p++ {
		for v := 0; v < r.vcs; v++ {
			i := p*r.vcs + v
			st := &r.vc[i]
			if r.outState[i].credits < 0 || r.outState[i].credits > int32(r.depth) {
				panic("noc: output VC credits out of range")
			}
			if hasCredits := r.outState[i].credits > 0; hasCredits != (r.creditMask[p]&(1<<uint(v)) != 0) {
				panic("noc: credit mask out of sync with credit counters")
			}
			if st.stage == vcIdle && st.bufLen != 0 {
				panic("noc: idle input VC holds flits")
			}
		}
	}
}
