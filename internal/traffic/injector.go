package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/freelist"
	"repro/internal/noc"
	"repro/internal/trace"
)

// Injector drives packet generation for every node of a network. It lives
// in the *node* clock domain: the engine tells it how many whole node
// cycles elapsed, and per node cycle each source performs one Bernoulli
// trial with probability rate/packetSize of generating a packet. Under
// DVFS the network clock slows down while the injector keeps its pace,
// which is exactly how the network injection rate λnoc = λnode·Fnode/Fnoc
// of Eq. (1) arises.
//
// The trials are not run cycle by cycle. Each node's generator is scanned
// ahead to its next hit, the injector remembers the cycle that falls on,
// and NodeCycle does nothing until the earliest such cycle arrives. The
// packets, their order and every later draw are the ones the per-cycle
// loop would produce, because:
//
//   - a node's generator has a single consumer, that node, so only the
//     order of draws within one node matters, not how the nodes' draws
//     interleave in host time;
//   - the destination (and O1TURN dimension) draws that follow a hit are
//     deferred to the cycle of the hit and the scan resumes only after
//     them, so the generator sees trial, destination, trial in the same
//     order as before;
//   - an on-off source's state toggles are events on the same schedule,
//     each handled at its own cycle, so the sojourn draw still precedes
//     the trial of the toggle cycle and every node's ON state is exact
//     at every cycle;
//   - the nodes due in one cycle emit in ascending id, which fixes the
//     packet ids the network hands out;
//   - the schedule is primed by the first NodeCycle, after SetSource has
//     drawn each node's initial on-off state from the same generators.
//
// An injector serves one run and has one owner, whoever built it. Its
// bulk, the per-node generator slab, may come from an earlier injector of
// the same mesh size and go on to a later one: the owner calls Release
// when the run is over (see there), and until then nothing else touches
// the slab.
type Injector struct {
	cfg     noc.Config
	pattern Pattern
	// rates[s] is node s's injection rate in flits per node clock cycle.
	rates []float64
	// probs[s] is the per-node-cycle packet generation probability.
	probs []float64
	// nodes[s] is node s's generator and schedule state; nil for replay
	// and after Release.
	nodes []nodeSource
	// next[s] is the node cycle of s's next event: a packet to emit, an
	// on-off toggle, or the end of a scan that found nothing within
	// scanHorizon. It is kept apart from nodes so the per-cycle search
	// for due nodes reads one dense array.
	next []int64
	// nextDue is the earliest cycle with an event: the minimum of next,
	// or the cycle of the next recorded event under replay. Its zero
	// value sends cycle 0 to fireDue, which is where next gets primed.
	nextDue int64

	// generatedFlits counts flits offered since the last WindowReset; the
	// RMSD controller's rate monitor reads it.
	generatedFlits int64
	// o1turn notes whether destinations need a random dimension order.
	o1turn bool

	// cycle counts node cycles stepped so far (the injection timeline of
	// captured traces).
	cycle int64
	// burst, when non-nil, modulates every source with an on-off state
	// machine (MMPP or Pareto; see source.go).
	burst *SourceConfig
	// capture, when non-nil, records every generated packet as an
	// injection-trace event.
	capture *trace.Injection
	// replay, when non-nil, re-injects recorded events instead of
	// generating packets.
	replay *replayState
}

// nodeSource is one node's packet source.
type nodeSource struct {
	gen lfg
	// rng wraps gen for the draws that go through math/rand: destinations,
	// the O1TURN dimension, on-off sojourns.
	rng rand.Rand
	nodeSchedule
}

// nodeSchedule is the part of a nodeSource that a recycled slab starts
// from zero; the generator and its wrapper are overwritten by seeding.
type nodeSchedule struct {
	// thresh encodes the node's trial probability (see hitThreshold).
	thresh uint64
	// hit reports that the event at next[s] is a packet.
	hit bool
	// on and until are the on-off state: whether the source is ON, and
	// the cycle at which it toggles.
	on    bool
	until int64
}

const (
	// scanHorizon bounds one scan, in trials. A scan that runs past the
	// end of the simulation is wasted host work, and a source with a
	// vanishing rate would otherwise scan forever.
	scanHorizon = 1024
	// never is the event cycle of a source with nothing left to do.
	never = math.MaxInt64
)

// maxPooledNodes is the largest mesh whose generator slab Release keeps
// (5 MB at 4.9 KB a node); a larger one is left to the collector.
const maxPooledNodes = 1024

// slabs holds released generator slabs by node count. A slab is the bulk
// of an injector (4.9 KB a node, a lagged-Fibonacci ring each) and a
// sweep builds an injector per point; every word of a recycled slab is
// overwritten before it is read, so where it came from cannot matter.
var slabs freelist.List[int, []nodeSource]

// SlabStats returns the process's cumulative generator-slab counters:
// slabs allocated and slabs taken from the free list.
func SlabStats() (built, reused int64) {
	built, reused, _ = slabs.Stats()
	return built, reused
}

// NewInjector builds an injector offering rate flits per node per node
// cycle at every node, with destinations from pattern. Each node gets an
// independent deterministic RNG derived from seed.
func NewInjector(cfg noc.Config, pattern Pattern, rate float64, seed int64) (*Injector, error) {
	if rate < 0 {
		return nil, fmt.Errorf("traffic: negative injection rate %g", rate)
	}
	return NewInjectorRates(cfg, pattern, UniformRates(cfg, rate), seed)
}

// UniformRates returns the rate vector of NewInjector: rate at every node
// of cfg's mesh.
func UniformRates(cfg noc.Config, rate float64) []float64 {
	rates := make([]float64, cfg.Nodes())
	for i := range rates {
		rates[i] = rate
	}
	return rates
}

// NewInjectorRates builds an injector with a per-node rate vector (flits
// per node per node cycle), used by the multimedia workloads where nodes
// inject at very different rates.
func NewInjectorRates(cfg noc.Config, pattern Pattern, rates []float64, seed int64) (*Injector, error) {
	if len(rates) != cfg.Nodes() {
		return nil, fmt.Errorf("traffic: %d rates for %d nodes", len(rates), cfg.Nodes())
	}
	inj := &Injector{
		cfg:     cfg,
		pattern: pattern,
		rates:   append([]float64(nil), rates...),
		probs:   make([]float64, len(rates)),
		next:    make([]int64, len(rates)),
		o1turn:  cfg.Routing == noc.RoutingO1TURN,
	}
	for i, r := range rates {
		if r < 0 {
			return nil, fmt.Errorf("traffic: negative rate %g at node %d", r, i)
		}
		p := r / float64(cfg.PacketSize)
		if p > 1 {
			return nil, fmt.Errorf("traffic: node %d rate %g exceeds one packet per cycle", i, r)
		}
		inj.probs[i] = p
	}
	var recycled bool
	if inj.nodes, recycled = slabs.Get(len(rates)); !recycled {
		inj.nodes = make([]nodeSource, len(rates))
	}
	for i := range inj.nodes {
		nd := &inj.nodes[i]
		nd.gen.Seed(seed + int64(i)*7919)
		nd.rng = *rand.New(&nd.gen)
		nd.nodeSchedule = nodeSchedule{}
	}
	return inj, nil
}

// Release hands the injector's generator slab to whichever injector is
// built next for a mesh of the same size, and ends this injector's life:
// only its owner may call it, once the last run that draws from it has
// returned, and nothing may use the injector afterwards. Never calling it
// is safe (the slab is collected with the injector); calling it on an
// injector abandoned mid-run is too, since the next owner reseeds every
// node. A replay injector owns no slab and Release does nothing.
func (inj *Injector) Release() {
	if inj.nodes != nil && len(inj.nodes) <= maxPooledNodes {
		slabs.Put(len(inj.nodes), inj.nodes)
	}
	inj.nodes = nil
}

// MeanRate returns the average offered rate across nodes (flits per node
// per node cycle).
func (inj *Injector) MeanRate() float64 { return MeanRate(inj.rates) }

// MeanRate returns the average of a per-node rate vector, summed in node
// order: the value Injector.MeanRate reports for an injector built on
// rates, for callers that need the number and not the injector.
func MeanRate(rates []float64) float64 {
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / float64(len(rates))
}

// NodeCycle performs one node-clock cycle of packet generation for every
// node, queueing new packets on net. nowNs is the current simulated time
// used to timestamp packets.
func (inj *Injector) NodeCycle(net *noc.Network, nowNs float64) {
	c := inj.cycle
	inj.cycle++
	if c >= inj.nextDue {
		inj.fireDue(net, nowNs, c)
	}
	if inj.capture != nil {
		inj.capture.Cycles = inj.cycle
	}
}

// fireDue handles every event of cycle c, in ascending node id (recorded
// order under replay), and finds the next cycle that has one.
func (inj *Injector) fireDue(net *noc.Network, nowNs float64, c int64) {
	if r := inj.replay; r != nil {
		for ; r.pos < len(r.events) && r.events[r.pos].Cycle == c; r.pos++ {
			e := r.events[r.pos]
			net.NewPacket(e.Src, e.Dst, nowNs, e.Dim)
			inj.generatedFlits += int64(inj.cfg.PacketSize)
		}
		inj.nextDue = never
		if r.pos < len(r.events) {
			inj.nextDue = r.events[r.pos].Cycle
		}
		return
	}
	if c == 0 {
		inj.prime()
	}
	due := int64(never)
	for s := range inj.next {
		for inj.next[s] == c {
			nd := &inj.nodes[s]
			from := c
			if nd.hit {
				inj.emit(net, nowNs, c, noc.NodeID(s), &nd.rng)
				from = c + 1
			} else if inj.burst != nil && c == nd.until {
				nd.on = !nd.on
				nd.until = c + inj.burst.sojourn(nd.on, &nd.rng)
			}
			inj.schedule(s, from)
		}
		if inj.next[s] < due {
			due = inj.next[s]
		}
	}
	inj.nextDue = due
}

// prime starts every active node's schedule at cycle 0. Zero-rate nodes
// never draw.
func (inj *Injector) prime() {
	for s, p := range inj.probs {
		if p == 0 {
			inj.next[s] = never
			continue
		}
		if inj.burst != nil {
			p *= inj.burst.BurstRatio
		}
		inj.nodes[s].thresh = hitThreshold(p)
		inj.schedule(s, 0)
	}
}

// schedule finds node s's next event given that its trials before cycle
// from are done: it scans ahead for the next hit, stopping short at the
// scan horizon and, for an on-off source, at the end of the ON sojourn (an
// OFF source just sleeps until its toggle).
func (inj *Injector) schedule(s int, from int64) {
	nd := &inj.nodes[s]
	limit := int64(scanHorizon)
	if inj.burst != nil {
		if !nd.on || from == nd.until {
			inj.next[s], nd.hit = nd.until, false
			return
		}
		limit = min(limit, nd.until-from)
	}
	misses, hit := nd.gen.scan(nd.thresh, limit)
	inj.next[s], nd.hit = from+misses, hit
}

// emit generates one packet at src, drawing the destination (and O1TURN
// dimension) from the node's RNG, and records it when a capture sink is
// attached.
func (inj *Injector) emit(net *noc.Network, nowNs float64, cycle int64, src noc.NodeID, rng *rand.Rand) {
	dst := inj.pattern.Dest(src, rng)
	var dim uint8
	if inj.o1turn {
		dim = uint8(rng.Intn(2))
	}
	net.NewPacket(src, dst, nowNs, dim)
	inj.generatedFlits += int64(inj.cfg.PacketSize)
	if inj.capture != nil {
		inj.capture.Events = append(inj.capture.Events, trace.InjectionEvent{
			Cycle: cycle, Src: src, Dst: dst, Dim: dim,
		})
	}
}

// WindowFlits returns the number of flits offered since the last
// WindowReset.
func (inj *Injector) WindowFlits() int64 { return inj.generatedFlits }

// WindowReset clears the offered-flit window counter.
func (inj *Injector) WindowReset() { inj.generatedFlits = 0 }
