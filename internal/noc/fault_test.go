package noc

import (
	"strings"
	"testing"
)

func TestParseLinkRoundTrip(t *testing.T) {
	for _, s := range []string{"0>1", "7>6", "12>17"} {
		l, err := ParseLink(s)
		if err != nil {
			t.Fatalf("ParseLink(%q): %v", s, err)
		}
		if l.String() != s {
			t.Errorf("ParseLink(%q).String() = %q", s, l.String())
		}
	}
	for _, s := range []string{"", "3", "a>b", "1>", ">2", "1-2"} {
		if _, err := ParseLink(s); err == nil {
			t.Errorf("ParseLink(%q) accepted a malformed link", s)
		}
	}
}

func TestValidateFaultsRejects(t *testing.T) {
	cfg := DefaultConfig()
	o1 := cfg
	o1.Routing = RoutingO1TURN
	cases := map[string]struct {
		cfg    Config
		faults []Link
	}{
		"outside mesh": {cfg, []Link{{From: 0, To: 99}}},
		"not adjacent": {cfg, []Link{{From: 0, To: 7}}},
		"self link":    {cfg, []Link{{From: 3, To: 3}}},
		"duplicate":    {cfg, []Link{{From: 0, To: 1}, {From: 0, To: 1}}},
		"o1turn":       {o1, []Link{{From: 0, To: 1}}},
	}
	for name, c := range cases {
		if err := ValidateFaults(c.cfg, c.faults); err == nil {
			t.Errorf("%s: ValidateFaults accepted %v", name, c.faults)
		}
	}
	if err := ValidateFaults(cfg, nil); err != nil {
		t.Errorf("empty fault set rejected: %v", err)
	}
	if err := ValidateFaults(cfg, []Link{{From: 0, To: 1}, {From: 1, To: 0}}); err != nil {
		t.Errorf("valid fault set rejected: %v", err)
	}
}

// TestRouteTableAvoidsFaults follows the table from every source to every
// destination and requires a minimal path that never crosses a dead
// channel, and that pairs whose dimension-ordered path survives keep
// exactly that path.
func TestRouteTableAvoidsFaults(t *testing.T) {
	cfg := DefaultConfig()
	faults := []Link{{From: 6, To: 7}, {From: 7, To: 6}, {From: 11, To: 12}}
	net, err := NewNetworkWithFaults(cfg, faults)
	if err != nil {
		t.Fatal(err)
	}
	dead := map[Link]bool{}
	for _, f := range faults {
		dead[f] = true
	}
	nodes := cfg.Nodes()
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			// Walk the table, counting hops and recording the path.
			cur := NodeID(src)
			var path []NodeID
			usesDead := false
			for hops := 0; cur != NodeID(dst); hops++ {
				if hops > nodes {
					t.Fatalf("route %d->%d does not converge", src, dst)
				}
				p := Port(net.routeTable[int(cur)*nodes+dst])
				dx, dy := p.delta()
				cx, cy := cfg.Coord(cur)
				if !cfg.InMesh(cx+dx, cy+dy) {
					t.Fatalf("route %d->%d walks off-mesh at node %d port %v", src, dst, cur, p)
				}
				next := cfg.Node(cx+dx, cy+dy)
				if dead[Link{From: cur, To: next}] {
					usesDead = true
				}
				cur = next
				path = append(path, cur)
			}
			if usesDead {
				t.Errorf("route %d->%d crosses a faulted channel: %v", src, dst, path)
			}
			// Minimality on the faulted topology is at least the Manhattan
			// distance; routes detouring around faults may be longer, but a
			// fault-free DOR pair must keep its exact DOR path.
			dorOK := true
			c := NodeID(src)
			var dorPath []NodeID
			for c != NodeID(dst) {
				p := routeDOR(&cfg, c, NodeID(dst), false)
				dx, dy := p.delta()
				cx, cy := cfg.Coord(c)
				n := cfg.Node(cx+dx, cy+dy)
				if dead[Link{From: c, To: n}] {
					dorOK = false
					break
				}
				c = n
				dorPath = append(dorPath, c)
			}
			if dorOK {
				if len(path) != len(dorPath) {
					t.Errorf("route %d->%d: table path %v, want DOR path %v", src, dst, path, dorPath)
					continue
				}
				for i := range path {
					if path[i] != dorPath[i] {
						t.Errorf("route %d->%d diverges from surviving DOR path: %v vs %v", src, dst, path, dorPath)
						break
					}
				}
			}
		}
	}
}

// TestPortTowardsMatchesDelta guards the port/delta convention the walk
// above relies on: an output port p leads to the router displaced by
// p.delta(), and portTowards inverts that mapping.
func TestPortTowardsMatchesDelta(t *testing.T) {
	cfg := DefaultConfig()
	for p := PortNorth; p <= PortWest; p++ {
		from := cfg.Node(2, 2)
		dx, dy := p.delta()
		to := cfg.Node(2+dx, 2+dy)
		if got := portTowards(&cfg, from, to); got != p {
			t.Errorf("portTowards(%d, %d) = %v, want %v", from, to, got, p)
		}
	}
}

func TestFaultsDisconnectError(t *testing.T) {
	cfg := DefaultConfig()
	// Cutting both outgoing channels of corner node 0 strands it.
	_, err := NewNetworkWithFaults(cfg, []Link{{From: 0, To: 1}, {From: 0, To: 5}})
	if err == nil || !strings.Contains(err.Error(), "disconnect") {
		t.Fatalf("disconnected fault set: err = %v", err)
	}
}

// TestFaultedTrafficDrains runs the standard traffic script over a faulted
// mesh. The masked channels panic if anything crosses them, so a clean
// drain plus invariant check proves the table is respected end to end.
func TestFaultedTrafficDrains(t *testing.T) {
	cfg := DefaultConfig()
	net, err := NewNetworkWithFaults(cfg, []Link{{From: 6, To: 7}, {From: 7, To: 6}, {From: 16, To: 17}})
	if err != nil {
		t.Fatal(err)
	}
	stepTraffic(net, 1500, 4)
	if !net.Drain(20_000) {
		t.Fatal("faulted traffic did not drain")
	}
	net.CheckInvariants()
}
