package noc

import "math/bits"

// maxShards bounds the row shards of one network.
const maxShards = 2

// shardCount returns how many row shards cfg's mesh is stepped as: two
// when it has more routers than heavySARouters, one otherwise (a mesh
// that small never has a heavy cycle, so a second shard would only cost
// the caller) and on single-row meshes. It depends on the mesh alone,
// never on the host or on whether a second core is lent (see Spare): the
// shards are the same whichever goroutine steps them.
func shardCount(cfg *Config) int {
	if cfg.Height < 2 || cfg.Nodes() <= heavySARouters {
		return 1
	}
	return maxShards
}

// shard is one contiguous band of mesh rows, node ids [lo, hi): shard 0
// takes the first Height/2 rows. It owns the engine bookkeeping of its
// routers and sources — the active and per-stage bitsets and their
// counters, the flits its sources injected — and stages the events its
// routers and sources produce, so one stage-major cycle, after the serial
// eject phase, is step on every shard:
//
//   - deliver: the arrival notices and credits that any shard staged last
//     cycle for this one's routers and sources;
//   - compute: RC, VA and SA over its routers, then its sources.
//
// The shards of one cycle need no barrier between one's deliver and
// another's compute: a shard's deliver and compute touch only its own
// routers and sources, its own staged lists, the read-only link and route
// tables, and last cycle's lists staged for it, which it empties. A flit
// sent to another shard's router is not stored into that router's ring
// by the sender, as it is within a shard, but carried in the staged
// notice and stored by the receiver when it delivers it; the credit for
// the slot the flit left travels on its own when it belongs to yet
// another shard. Shards therefore step in any order or at once, and the
// state a cycle leaves is the same either way: deliveries commute (see
// deliver) and the ejected tails, staged per shard in ascending router id,
// are completed in shard order.
//
// When two goroutines step the shards, a cache line written by one and
// read by the other moves between their cores, which costs a sizeable
// fraction of a router's step. So nothing crosses but what must: the
// staged lists, the packets, and the sources' queues that NewPacket
// fills. Staged lists are double-buffered by cycle parity, so no serial
// swap writes them, and ejected flits return their credits through the
// link lists, so the serial eject phase touches no router.
type shard struct {
	net    *Network
	index  int
	lo, hi int

	// Bit k of word w of these sets stands for node lo+w*64+k; see
	// Network for what each set holds. They are the shard's own words,
	// so two shards never write one word.
	routerWords    []uint64
	sourceWords    []uint64
	rcWords        []uint64
	vaWords        []uint64
	saWords        []uint64
	nActiveRouters int
	nActiveSources int

	// flitsInjected counts the source->router flits this shard's sources
	// staged.
	flitsInjected int64

	// out[c&1][d] holds what the shard staged during cycle c for shard d,
	// which delivers it at c+1 and empties it. tails[c&1] holds the
	// packets whose tail flit the shard ejected during cycle c, in
	// ascending router id, and ejected[c&1] how many flits it ejected;
	// the eject phase of c+1 completes them and empties both.
	out     [2][maxShards]outbox
	tails   [2][]*Packet
	ejected [2]int64

	// Shard 0 is stepped by the caller and shard 1 by a helper at the same
	// time: keep their hot counters off one cache line.
	_ [64]byte
}

// outbox is what one shard stages during one cycle for one shard: link
// events for its routers (each with the credit of the slot the flit left,
// when that belongs to the same shard), credits alone (those of ejected
// flits, and the ones whose arrival went elsewhere), and flits carried
// across from another shard with their events. An outbox keeps to cache
// lines of its own: its writer and its reader may run on different
// cores, and the outboxes of the cycle being staged and of the one being
// delivered are in use at the same time.
type outbox struct {
	links   []linkEvent
	credits []linkEvent
	carried []carriedFlit
	_       [56]byte
}

// newShards cuts the mesh into its row shards and carves their bitsets
// out of one array, a cache line apart: each core sets and clears its
// shard's bits many times a cycle.
func newShards(n *Network) []shard {
	k := shardCount(&n.cfg)
	shards := make([]shard, k)
	bounds := [maxShards + 1]int{0, n.cfg.Nodes()}
	if k == 2 {
		bounds = [maxShards + 1]int{0, n.cfg.Height / 2 * n.cfg.Width, n.cfg.Nodes()}
	}
	const pad = 8 // words: one cache line
	total := 0
	for i := range shards {
		total += 5*((bounds[i+1]-bounds[i]+63)/64) + pad
	}
	slab := make([]uint64, total)
	for i := range shards {
		s := &shards[i]
		s.net, s.index, s.lo, s.hi = n, i, bounds[i], bounds[i+1]
		words := (s.hi - s.lo + 63) / 64
		next := func() []uint64 {
			w := slab[:words:words]
			slab = slab[words:]
			return w
		}
		s.routerWords, s.sourceWords = next(), next()
		s.rcWords, s.vaWords, s.saWords = next(), next(), next()
		slab = slab[pad:]
	}
	return shards
}

// shardOf returns the index of the shard holding node id.
func (n *Network) shardOf(id int) int {
	for i := range n.shards {
		if id < n.shards[i].hi {
			return i
		}
	}
	panic("noc: node outside the mesh")
}

// reset empties the shard: no bits set, nothing staged.
func (s *shard) reset() {
	clear(s.routerWords)
	clear(s.sourceWords)
	clear(s.rcWords)
	clear(s.vaWords)
	clear(s.saWords)
	s.nActiveRouters, s.nActiveSources = 0, 0
	s.flitsInjected = 0
	for p := range s.out {
		for d := range s.out[p] {
			o := &s.out[p][d]
			o.links = o.links[:0]
			o.credits = o.credits[:0]
			clear(o.carried[:cap(o.carried)]) // stale flits pin their packets
			o.carried = o.carried[:0]
		}
		clear(s.tails[p][:cap(s.tails[p])])
		s.tails[p] = s.tails[p][:0]
		s.ejected[p] = 0
	}
}

// idle reports whether the shard holds no work and staged nothing during
// the last cycle, of parity p.
func (s *shard) idle(p int64) bool {
	if s.nActiveRouters != 0 || s.nActiveSources != 0 || s.ejected[p] != 0 {
		return false
	}
	for d := range s.out[p] {
		if o := &s.out[p][d]; len(o.links)+len(o.credits)+len(o.carried) != 0 {
			return false
		}
	}
	return true
}

// activateRouter sets r's bit in the shard's active-router set. Callers
// must check r.active first.
func (s *shard) activateRouter(r *Router) {
	r.active = true
	s.routerWords[r.lid>>6] |= 1 << uint(r.lid&63)
	s.nActiveRouters++
}

// activateSource sets src's bit in the shard's active-source set.
// Callers must check src.active first.
func (s *shard) activateSource(src *source) {
	src.active = true
	k := int(src.node) - s.lo
	s.sourceWords[k>>6] |= 1 << uint(k&63)
	s.nActiveSources++
}

// eject stages, during cycle, flit f's ejection from an input port whose
// upstream is up: the eject phase of the next cycle completes it, and the
// freed slot's credit travels alone, to be applied by up's shard. Like
// cross, it is a call of its own to keep stageSA's loop small.
func (s *shard) eject(cycle int64, f Flit, up *linkInfo, v int) {
	p := cycle & 1
	s.ejected[p]++
	if f.Tail {
		s.tails[p] = append(s.tails[p], f.Packet)
	}
	// Ejection consumes at link rate, so local output VCs never block on
	// credits.
	cr := &s.out[p][up.shard].credits
	*cr = append(*cr, makeLinkEvent(0, 0, 0, up.upNode, up.target, int8(v)))
}

// carriedFlit is a link event bound for another shard's router, with
// the flit itself (see shard).
type carriedFlit struct {
	flit Flit
	ev   linkEvent
}

// cross stages, during cycle, flit f's traversal with its notice e when
// its destination lk or the credit's upstream up lies outside the shard.
// It reports whether the caller is to stage e's arrival half on the
// shard's own list: the flit stays in the shard, stored here into its
// ring, and only the credit crosses. Otherwise the flit is carried, with
// the credit when both go to the same shard.
//
//go:noinline
func (s *shard) cross(cycle int64, lk, up *linkInfo, f Flit, e linkEvent) bool {
	out := &s.out[cycle&1]
	if lk.shard == up.shard {
		out[lk.shard].carried = append(out[lk.shard].carried, carriedFlit{f, e})
		return false
	}
	out[up.shard].credits = append(out[up.shard].credits, e)
	if lk.shard == int8(s.index) {
		s.net.store(e, f)
		return true
	}
	out[lk.shard].carried = append(out[lk.shard].carried, carriedFlit{f, e.arrivalOnly()})
	return false
}

// store writes f into the ring slot at the write head of e's arrival VC.
func (n *Network) store(e linkEvent, f Flit) {
	depth := n.cfg.BufDepth
	g := (int(e.node())*NumPorts+int(e.port()))*n.cfg.VCs + int(e.vc())
	st := &n.vc[g]
	slot := int(st.wrHead)
	n.bufs[g*depth+slot] = f
	if slot++; slot == depth {
		slot = 0
	}
	st.wrHead = uint8(slot)
}

// step runs one stage-major cycle of the shard.
func (s *shard) step(cycle int64) {
	s.deliver(cycle)
	s.compute(cycle)
}

// deliver applies the link events staged last cycle for this shard, and
// empties their lists: arrival commits for flits already sitting in their
// destination ring slots (or carried from another shard, and stored
// first), and upstream credits. At most one flit per (router, input port)
// and one credit per (router, output port, vc) exist per cycle, so
// delivery order across sibling events is commutative.
func (s *shard) deliver(cycle int64) {
	n := s.net
	p := (cycle - 1) & 1
	for t := range n.shards {
		o := &n.shards[t].out[p][s.index]
		// The two hot loops spell credit out: a call per event shows.
		for _, ev := range o.links {
			n.routers[ev.node()].commitArrival(Port(ev.port()), int(ev.vc()), cycle)
			if ev.credNode() >= 0 {
				if ct := ev.credTarget(); ct < 0 {
					n.sources[-ct-1].acceptCredit(int(ev.credVC()))
				} else {
					n.returnCredit(ct, ev.credVC())
				}
			}
		}
		o.links = o.links[:0]
		if len(o.credits) > 0 {
			for _, ev := range o.credits {
				if ct := ev.credTarget(); ct < 0 {
					n.sources[-ct-1].acceptCredit(int(ev.credVC()))
				} else {
					n.returnCredit(ct, ev.credVC())
				}
			}
			o.credits = o.credits[:0]
		}
		if len(o.carried) > 0 {
			for i := range o.carried {
				c := &o.carried[i]
				n.store(c.ev, c.flit)
				n.routers[c.ev.node()].commitArrival(Port(c.ev.port()), int(c.ev.vc()), cycle)
				n.credit(c.ev)
			}
			o.carried = o.carried[:0]
		}
	}
}

// credit applies ev's credit, if it carries one.
func (n *Network) credit(ev linkEvent) {
	if ev.credNode() < 0 {
		return
	}
	if ct := ev.credTarget(); ct < 0 {
		n.sources[-ct-1].acceptCredit(int(ev.credVC()))
	} else {
		n.returnCredit(ct, ev.credVC())
	}
}

// compute runs one stage-major cycle over the shard: each pipeline stage
// sweeps its router bitmask once, in ascending id order, over the
// contiguous per-VC state, before the next stage starts; then the active
// sources inject. Routers that end the cycle with no work are pruned from
// the active set, as are drained sources.
func (s *shard) compute(cycle int64) {
	n := s.net
	routers := n.routers
	// gated is false on homogeneous meshes, keeping the island check out
	// of the hot path; stalled nodes skip every stage (and injection) but
	// stay in the active sets until they run again.
	gated := n.islandOf != nil
	for w, word := range s.rcWords {
		for base := s.lo + w*64; word != 0; word &= word - 1 {
			id := base + bits.TrailingZeros64(word)
			if gated && n.nodeStalled(id) {
				continue
			}
			routers[id].stageRC(cycle)
		}
	}
	for w, word := range s.vaWords {
		for base := s.lo + w*64; word != 0; word &= word - 1 {
			id := base + bits.TrailingZeros64(word)
			if gated && n.nodeStalled(id) {
				continue
			}
			routers[id].stageVA(cycle)
		}
	}
	// A router can only run out of work during its SA pass (flits leave
	// nowhere else), so pruning the active set here catches every router
	// the moment it goes idle.
	for w, word := range s.saWords {
		for base := s.lo + w*64; word != 0; word &= word - 1 {
			k := bits.TrailingZeros64(word)
			if gated && n.nodeStalled(base+k) {
				continue
			}
			r := &routers[base+k]
			r.stageSA(cycle)
			if !r.hasWork() {
				r.active = false
				s.routerWords[w] &^= 1 << uint(k)
				s.nActiveRouters--
			}
		}
	}
	sources := n.sources
	for w, word := range s.sourceWords {
		for base := s.lo + w*64; word != 0; word &= word - 1 {
			k := bits.TrailingZeros64(word)
			if gated && n.nodeStalled(base+k) {
				continue
			}
			src := sources[base+k]
			src.step(cycle, &n.cfg)
			if !src.hasWork() {
				src.active = false
				s.sourceWords[w] &^= 1 << uint(k)
				s.nActiveSources--
			}
		}
	}
}

// saRouters counts the routers of the whole mesh with SA work.
func (n *Network) saRouters() int {
	c := 0
	for i := range n.shards {
		for _, w := range n.shards[i].saWords {
			c += bits.OnesCount64(w)
		}
	}
	return c
}

// checkInvariants panics if the shard's bitsets or counters disagree with
// its routers and sources.
func (s *shard) checkInvariants() {
	n := s.net
	nr, ns := 0, 0
	for w, word := range s.routerWords {
		for base := s.lo + w*64; word != 0; word &= word - 1 {
			id := base + bits.TrailingZeros64(word)
			if id >= s.hi {
				panic("noc: active router bit outside the shard")
			}
			if !n.routers[id].active {
				panic("noc: active router bit set for inactive router")
			}
			nr++
		}
	}
	for w, word := range s.sourceWords {
		for base := s.lo + w*64; word != 0; word &= word - 1 {
			id := base + bits.TrailingZeros64(word)
			if id >= s.hi {
				panic("noc: active source bit outside the shard")
			}
			if !n.sources[id].active {
				panic("noc: active source bit set for inactive source")
			}
			ns++
		}
	}
	if nr != s.nActiveRouters || ns != s.nActiveSources {
		panic("noc: active counts out of sync")
	}
	for _, words := range [][]uint64{s.rcWords, s.vaWords, s.saWords} {
		if last := words[len(words)-1]; (s.hi-s.lo)&63 != 0 && last>>uint((s.hi-s.lo)&63) != 0 {
			panic("noc: per-stage bit set outside the shard")
		}
	}
	for id := s.lo; id < s.hi; id++ {
		r := &n.routers[id]
		if r.sh != s || r.lid != id-s.lo {
			panic("noc: router wired to the wrong shard")
		}
		k := id - s.lo
		bit := uint64(1) << uint(k&63)
		if (s.rcWords[k>>6]&bit != 0) != (r.nRouting > 0) ||
			(s.vaWords[k>>6]&bit != 0) != (r.nWaitVC > 0) ||
			(s.saWords[k>>6]&bit != 0) != (r.nActive > 0) {
			panic("noc: per-stage words out of sync with stage counters")
		}
		if r.active && s.routerWords[k>>6]&bit == 0 {
			panic("noc: active router missing from the active mask")
		}
	}
	for p := range s.out {
		for d := len(n.shards); d < maxShards; d++ {
			if o := &s.out[p][d]; len(o.links)+len(o.credits)+len(o.carried) != 0 {
				panic("noc: event staged for a shard that does not exist")
			}
		}
		if len(s.out[p][s.index].carried) != 0 {
			panic("noc: flit carried within its own shard")
		}
	}
}
