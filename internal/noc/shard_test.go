package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// freeSpare is a Spare that always has a slot and never a waiter.
type freeSpare struct{}

func (freeSpare) TryBorrow() bool { return true }
func (freeSpare) Wanted() bool    { return false }
func (freeSpare) Return()         {}

// countingSpare is a Spare with one slot to lend, counting its loans, and
// a waiter the test can make appear.
type countingSpare struct {
	lent, returned atomic.Int32
	wanted         atomic.Bool
}

func (s *countingSpare) TryBorrow() bool {
	if s.wanted.Load() || s.lent.Load() > s.returned.Load() {
		return false
	}
	s.lent.Add(1)
	return true
}
func (s *countingSpare) Wanted() bool { return s.wanted.Load() }
func (s *countingSpare) Return()      { s.returned.Add(1) }

// forceSharded makes n split every cycle with any SA work across its
// helper, from a spare that is always free, through the in-package hook.
func forceSharded(n *Network) {
	n.SetSpare(freeSpare{})
	n.lend.forced = true
}

// awaitHelper waits until n's helper is spinning, so that every later
// cycle with SA work forks: the helper steps the second shard unless the
// caller claims it first.
func awaitHelper(t *testing.T, n *Network) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n.lend.state.Load() != helperLive {
		if time.Now().After(deadline) {
			t.Fatal("the helper never arrived")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// shardCase is one generated network: a mesh, its faults and islands.
type shardCase struct {
	cfg     Config
	faults  []Link
	islands []Island
	rate    float64 // packets per node per cycle
}

func (c shardCase) String() string {
	return fmt.Sprintf("%dx%d/%s/vcs%d/buf%d/pkt%d/faults%d/islands%d",
		c.cfg.Width, c.cfg.Height, c.cfg.Routing, c.cfg.VCs, c.cfg.BufDepth, c.cfg.PacketSize, len(c.faults), len(c.islands))
}

// genShardCase draws a network on a w x h mesh: 1 to 12 VCs, one-, two-
// or four-slot rings, short packets, any routing, and — each half the
// time — a few faulty links (never under O1TURN, which cannot route
// around them) and one or two slower islands.
func genShardCase(rng *rand.Rand, w, h int) shardCase {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.VCs = 1 + rng.Intn(12)
	cfg.BufDepth = []int{1, 2, 4}[rng.Intn(3)]
	cfg.PacketSize = 1 + rng.Intn(8)
	cfg.Routing = Routing(rng.Intn(3))
	c := shardCase{cfg: cfg, rate: (0.1 + 0.4*rng.Float64()) / float64(cfg.PacketSize)}
	if cfg.Routing != RoutingO1TURN && cfg.Nodes() > 2 && rng.Intn(2) == 0 {
		for tries := 0; tries < 20 && c.faults == nil; tries++ {
			var faults []Link
			seen := map[Link]bool{}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				from := NodeID(rng.Intn(cfg.Nodes()))
				x, y := cfg.Coord(from)
				p := PortNorth + Port(rng.Intn(4))
				dx, dy := p.delta()
				if !cfg.InMesh(x+dx, y+dy) {
					continue
				}
				l := Link{From: from, To: cfg.Node(x+dx, y+dy)}
				if !seen[l] {
					seen[l] = true
					faults = append(faults, l)
				}
			}
			if _, err := NewNetworkWithFaults(cfg, faults); err == nil && len(faults) > 0 {
				c.faults = faults
			}
		}
	}
	if rng.Intn(2) == 0 {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			x0, y0 := rng.Intn(w), rng.Intn(h)
			c.islands = append(c.islands, Island{
				X0: x0, Y0: y0, X1: x0 + rng.Intn(w-x0), Y1: y0 + rng.Intn(h-y0),
				Speed: []float64{0.5, 0.75, 0.9}[rng.Intn(3)],
			})
		}
	}
	return c
}

// TestEngineMatchesSpec steps three copies of each generated network in
// lockstep — row shards split across the helper on every cycle with SA
// work (the forceSharded hook), the same shards stepped one after the
// other on the caller, and the reference model of spec_test.go — under
// the same random traffic, with idle stretches the skip-ahead path
// jumps, and requires after every cycle that both engines hold what the
// spec holds: the flits of every input VC in order, the credits of every
// output VC and source, per-router and network activity, the packet and
// flit counters, flits in flight, the source backlog, the cycle and the
// arrivals with their cycles. Most networks are generated meshes of 5x5
// or smaller; the rest cover two shards (6x6 to 8x8), and bitsets of two
// words (9x9) and of two words with one node in the second (13x5).
func TestEngineMatchesSpec(t *testing.T) {
	fixed, generated := 4, 1000
	if testing.Short() {
		fixed, generated = 2, 300
	}
	type specCase struct {
		name string
		c    shardCase
		rng  *rand.Rand // the case's traffic continues its draws
	}
	var cases []specCase
	for _, dim := range [][2]int{{2, 1}, {5, 5}, {8, 8}, {9, 9}, {13, 5}} {
		for seed := int64(0); seed < int64(fixed); seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(dim[0]*dim[1])))
			c := genShardCase(rng, dim[0], dim[1])
			cases = append(cases, specCase{c.String(), c, rng})
		}
	}
	twoShards := [][2]int{{6, 6}, {7, 5}, {8, 8}, {9, 9}, {13, 5}}
	for seed := int64(0); seed < int64(generated); seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(5), 1+rng.Intn(5)
		if seed%20 == 19 {
			d := twoShards[rng.Intn(len(twoShards))]
			w, h = d[0], d[1]
		} else if w*h < 2 {
			w = 2
		}
		c := genShardCase(rng, w, h)
		cases = append(cases, specCase{fmt.Sprintf("seed%d/%s", seed, c), c, rng})
	}

	// A forked cycle's second shard goes to whichever side claims it
	// first, so one short case may see the helper win no claim; all of
	// them together must.
	var split int64
	for _, sc := range cases {
		c, rng := sc.c, sc.rng
		t.Run(sc.name, func(t *testing.T) {
			// The spec takes only the routing decision from a network of its
			// own, which is never stepped.
			router, err := NewNetworkWithFaults(c.cfg, c.faults)
			if err != nil {
				t.Fatal(err)
			}
			ref := newSpec(c.cfg, c.faults, c.islands, router.routePort)
			nets := make([]*Network, 2) // sharded, inline
			arrivals := make([][][2]int64, 2)
			for k := range nets {
				n, err := NewNetworkWithFaults(c.cfg, c.faults)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.SetIslands(c.islands); err != nil {
					t.Fatal(err)
				}
				n.OnArrive = func(p *Packet, cycle int64) {
					arrivals[k] = append(arrivals[k], [2]int64{p.ID, cycle})
				}
				nets[k] = n
			}
			sharded := nets[0]
			forceSharded(sharded)
			defer sharded.SetSpare(nil)
			twoShards := len(sharded.shards) == 2
			awaited := false
			compared := 0

			nodes := c.cfg.Nodes()
			for cycle := 0; cycle < 700; cycle++ {
				if cycle < 300 || cycle >= 450 && cycle < 600 { // idle in between
					for s := 0; s < nodes; s++ {
						if rng.Float64() >= c.rate {
							continue
						}
						d := rng.Intn(nodes - 1)
						if d >= s {
							d++
						}
						dim := uint8(rng.Intn(2))
						for _, n := range nets {
							n.NewPacket(NodeID(s), NodeID(d), float64(n.Cycle()), dim)
						}
						ref.newPacket(NodeID(s), NodeID(d), dim)
					}
				}
				ref.step()
				for k, n := range nets {
					n.Step()
					n.CheckInvariants()
					if d := diffSpec(n, ref); d != "" {
						t.Fatalf("cycle %d, %s engine: %s", n.Cycle(), [2]string{"sharded", "inline"}[k], d)
					}
					if len(arrivals[k]) != len(ref.arrivals) {
						t.Fatalf("cycle %d: %d arrivals, spec %d", n.Cycle(), len(arrivals[k]), len(ref.arrivals))
					}
					for i := compared; i < len(ref.arrivals); i++ {
						if arrivals[k][i] != ref.arrivals[i] {
							t.Fatalf("cycle %d: arrival %d is packet/cycle %v, spec %v", n.Cycle(), i, arrivals[k][i], ref.arrivals[i])
						}
					}
				}
				compared = len(ref.arrivals)
				if twoShards && !awaited && sharded.lend.held {
					awaitHelper(t, sharded)
					awaited = true
				}
			}
			if ref.arrived == 0 {
				t.Fatal("no packet arrived")
			}
			_, n := sharded.SpareUse()
			if !twoShards && n != 0 {
				t.Fatalf("a one-shard mesh stepped %d cycles split", n)
			}
			split += n
		})
	}
	if split == 0 {
		t.Fatal("the helper stepped no cycle of any two-shard mesh")
	}
}

// diffSpec describes the first way n's state differs from s's, or returns
// "" when it does not. It is the only code that reads engine state.
func diffSpec(n *Network, s *spec) string {
	if n.Cycle() != s.cycle {
		return fmt.Sprintf("cycle %d, spec %d", n.Cycle(), s.cycle)
	}
	q, a, i, e := n.Stats()
	if got, want := [4]int64{q, a, i, e}, [4]int64{s.queued, s.arrived, s.injected, s.ejectedFlits}; got != want {
		return fmt.Sprintf("queued/arrived/injected/ejected %v, spec %v", got, want)
	}
	if got, want := n.InFlight(), s.inFlight(); got != want {
		return fmt.Sprintf("%d flits in flight, spec %d", got, want)
	}
	if got, want := n.SourceBacklog(), s.backlog(); got != want {
		return fmt.Sprintf("source backlog %d, spec %d", got, want)
	}
	vcs, depth := n.cfg.VCs, n.cfg.BufDepth
	var sum RouterActivity
	for id := range s.routers {
		r := &s.routers[id]
		sum.Add(r.act)
		if got := n.routers[id].Activity; got != r.act {
			return fmt.Sprintf("router %d activity %+v, spec %+v", id, got, r.act)
		}
		for k := range r.in {
			g := id*NumPorts*vcs + k
			st := &n.vc[g]
			flits := r.in[k].flits
			if int(st.bufLen) != len(flits) {
				return fmt.Sprintf("router %d input %s VC %d holds %d flits, spec %d", id, Port(k/vcs), k%vcs, st.bufLen, len(flits))
			}
			for j, f := range flits {
				got := n.bufs[g*depth+(int(st.bufHead)+j)%depth]
				if got.Packet.ID != f.pkt.id || got.Head != f.head() || got.Tail != f.tail() {
					return fmt.Sprintf("router %d input %s VC %d flit %d is packet %d head=%v tail=%v, spec packet %d flit %d of %d",
						id, Port(k/vcs), k%vcs, j, got.Packet.ID, got.Head, got.Tail, f.pkt.id, f.seq, f.pkt.size)
				}
			}
			if got, want := int(n.outState[g].credits), r.out[k].credits; got != want {
				return fmt.Sprintf("router %d output %s VC %d has %d credits, spec %d", id, Port(k/vcs), k%vcs, got, want)
			}
		}
		for v, want := range s.sources[id].credits {
			if got := n.sources[id].credits[v]; got != want {
				return fmt.Sprintf("source %d VC %d has %d credits, spec %d", id, v, got, want)
			}
		}
	}
	if got, want := n.Activity(), (NetworkActivity{RouterActivity: sum, Cycles: s.cycle}); got != want {
		return fmt.Sprintf("network activity %+v, spec %+v", got, want)
	}
	return ""
}

// TestShardLayout: two row shards exactly when the mesh has more routers
// than heavySARouters and more than one row, cut after Height/2 rows, with
// every router wired to the shard holding its id.
func TestShardLayout(t *testing.T) {
	for _, tc := range []struct {
		w, h, shards, cut int
	}{
		{2, 1, 1, 2}, {4, 4, 1, 16}, {5, 5, 1, 25}, {40, 1, 1, 40},
		{6, 6, 2, 18}, {8, 8, 2, 32}, {9, 9, 2, 36}, {13, 5, 2, 26},
	} {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = tc.w, tc.h
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.shards) != tc.shards || n.shards[0].hi != tc.cut || n.shards[len(n.shards)-1].hi != cfg.Nodes() {
			t.Errorf("%dx%d: %d shards, first ends at %d; want %d, %d", tc.w, tc.h, len(n.shards), n.shards[0].hi, tc.shards, tc.cut)
		}
		n.CheckInvariants()
	}
}

// TestHelperPanicReachesCaller: a panic in the helper's shard is raised
// again on the goroutine that called Step, and the network still lets go
// of its helper.
func TestHelperPanicReachesCaller(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 8, 8
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	forceSharded(net)
	randomTraffic(net, rand.New(rand.NewSource(5)), 50, 0.02)
	awaitHelper(t, net)
	randomTraffic(net, rand.New(rand.NewSource(6)), 200, 0.02)
	// Credit overflow on every output VC of the helper's routers: the
	// next credit delivered there panics inside the helper's shard.
	for i := net.shards[1].lo * NumPorts * cfg.VCs; i < len(net.outState); i++ {
		net.outState[i].credits = int32(cfg.BufDepth)
	}
	got := func() (p any) {
		defer func() { p = recover() }()
		for range 100 {
			net.Step()
		}
		return nil
	}()
	if s, _ := got.(string); !strings.Contains(s, "credit overflow") {
		t.Fatalf("Step panicked with %v, want the helper's credit overflow", got)
	}
	net.SetSpare(nil)
	if net.lend.state.Load() != helperIdle || net.lend.held {
		t.Fatal("the network still holds its helper or its slot")
	}
}

// TestLateHelperLeavesShardToCaller: on one P a hired helper runs only
// when the caller yields, which a forked cycle no longer does while the
// second shard is unclaimed: the caller claims it and steps it itself.
// The run ends as an inline twin does, and most of its forked cycles
// were never split.
func TestLateHelperLeavesShardToCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 8, 8
	late, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	forceSharded(late)
	defer late.SetSpare(nil)
	const cycles = 3000
	randomTraffic(late, rand.New(rand.NewSource(12)), cycles, 0.02)
	randomTraffic(inline, rand.New(rand.NewSource(12)), cycles, 0.02)
	if !late.lend.held {
		t.Fatal("the network did not borrow")
	}
	if _, split := late.SpareUse(); split > cycles/2 {
		t.Fatalf("%d of %d cycles stepped split on one P; want the caller to claim most", split, cycles)
	}
	q1, a1, i1, e1 := late.Stats()
	q2, a2, i2, e2 := inline.Stats()
	if q1 != q2 || a1 != a2 || i1 != i2 || e1 != e2 {
		t.Fatalf("late helper stats %d/%d/%d/%d, inline %d/%d/%d/%d", q1, a1, i1, e1, q2, a2, i2, e2)
	}
	if !reflect.DeepEqual(routerActivities(late), routerActivities(inline)) {
		t.Fatal("per-router activity differs from the inline twin")
	}
}

// TestSpareGivenBackWhenWanted: a held slot goes back on the first cycle
// that finds a waiter, quiescent cycles included, and is borrowed again
// only once the waiter is gone and the retry interval has passed.
func TestSpareGivenBackWhenWanted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 8, 8
	for _, quiet := range []bool{false, true} {
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spare := &countingSpare{}
		net.SetSpare(spare)
		net.lend.forced = true
		randomTraffic(net, rand.New(rand.NewSource(7)), 50, 0.02)
		if spare.lent.Load() != 1 || !net.lend.held {
			t.Fatal("the network did not borrow")
		}
		if quiet && !net.Drain(100_000) {
			t.Fatal("traffic did not drain")
		}
		spare.wanted.Store(true)
		net.Step()
		if spare.returned.Load() != 1 || net.lend.held {
			t.Fatalf("quiet=%v: the slot was not given back within one cycle", quiet)
		}
		randomTraffic(net, rand.New(rand.NewSource(8)), 50, 0.02)
		if spare.lent.Load() != 1 {
			t.Fatal("borrowed while a waiter waits")
		}
		spare.wanted.Store(false)
		randomTraffic(net, rand.New(rand.NewSource(9)), borrowRetryCycles+50, 0.02)
		if spare.lent.Load() != 2 {
			t.Fatalf("lent %d times, want a second loan after the retry interval", spare.lent.Load())
		}
		net.SetSpare(nil)
		if spare.lent.Load() != spare.returned.Load() {
			t.Fatalf("lent %d, returned %d", spare.lent.Load(), spare.returned.Load())
		}
	}
}

// TestSpareGivenBackWhenLight: a run that stays light for
// lightReturnCycles gives its slot back, and lets go of its helper.
func TestSpareGivenBackWhenLight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 8, 8
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spare := &countingSpare{}
	net.SetSpare(spare)
	net.lend.forced = true
	randomTraffic(net, rand.New(rand.NewSource(10)), 100, 0.02)
	if !net.lend.held {
		t.Fatal("the network did not borrow")
	}
	steps := 0
	for ; net.lend.held && steps < 50_000; steps++ {
		net.Step() // no new traffic: it drains, then idles
	}
	if !net.Quiescent() || steps < lightReturnCycles {
		t.Fatalf("the slot went back after %d cycles, before the run was light for %d", steps, lightReturnCycles)
	}
	if net.lend.held || spare.returned.Load() != 1 {
		t.Fatal("a light run kept its slot")
	}
	net.SetSpare(nil)
	if net.lend.state.Load() != helperIdle {
		t.Fatal("the helper did not let go")
	}
}
