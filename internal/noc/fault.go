package noc

import (
	"fmt"
	"strconv"
	"strings"
)

// Link names one directed mesh channel by its endpoint node ids. Faults
// are directed: masking a→b removes only that channel, leaving b→a up
// (mask both directions for a fully dead wire).
type Link struct {
	From NodeID `json:"from"`
	To   NodeID `json:"to"`
}

// String renders the link in the "from>to" wire form.
func (l Link) String() string { return fmt.Sprintf("%d>%d", l.From, l.To) }

// ParseLink parses the "from>to" wire form of a directed link.
func ParseLink(s string) (Link, error) {
	a, b, ok := strings.Cut(s, ">")
	if !ok {
		return Link{}, fmt.Errorf("noc: link %q is not of the form \"from>to\"", s)
	}
	from, err := strconv.Atoi(strings.TrimSpace(a))
	if err != nil {
		return Link{}, fmt.Errorf("noc: bad link source in %q: %w", s, err)
	}
	to, err := strconv.Atoi(strings.TrimSpace(b))
	if err != nil {
		return Link{}, fmt.Errorf("noc: bad link destination in %q: %w", s, err)
	}
	return Link{From: NodeID(from), To: NodeID(to)}, nil
}

// maxFaultyNodes bounds meshes that carry a fault-aware routing table:
// the table is nodes² entries, so very large meshes would pay hundreds
// of megabytes for it.
const maxFaultyNodes = 4096

// ValidateFaults checks every fault names an existing mesh channel, no
// fault is duplicated, and the routing algorithm supports table routing.
// It is the eager structural check; whether the surviving channels keep
// the mesh connected is only known once the route table is built
// (NewNetworkWithFaults reports that).
func ValidateFaults(cfg Config, faults []Link) error {
	return validateFaults(cfg, faults)
}

// validateFaults checks each fault names an existing mesh channel and
// that the routing algorithm supports table routing.
func validateFaults(cfg Config, faults []Link) error {
	if len(faults) == 0 {
		return nil
	}
	if cfg.Routing == RoutingO1TURN {
		return fmt.Errorf("noc: o1turn routing cannot respect faulty links (per-packet dimension order defeats the route table)")
	}
	if cfg.Nodes() > maxFaultyNodes {
		return fmt.Errorf("noc: faulty meshes are capped at %d nodes, got %d", maxFaultyNodes, cfg.Nodes())
	}
	seen := make(map[Link]bool, len(faults))
	for _, f := range faults {
		if int(f.From) < 0 || int(f.From) >= cfg.Nodes() || int(f.To) < 0 || int(f.To) >= cfg.Nodes() {
			return fmt.Errorf("noc: faulty link %s references a node outside the %dx%d mesh", f, cfg.Width, cfg.Height)
		}
		if cfg.Distance(f.From, f.To) != 1 {
			return fmt.Errorf("noc: faulty link %s does not name adjacent nodes", f)
		}
		if seen[f] {
			return fmt.Errorf("noc: duplicate faulty link %s", f)
		}
		seen[f] = true
	}
	return nil
}

// portTowards returns the output port of from facing the adjacent node
// to. Callers guarantee adjacency.
func portTowards(cfg *Config, from, to NodeID) Port {
	fx, fy := cfg.Coord(from)
	tx, ty := cfg.Coord(to)
	switch {
	case tx == fx+1:
		return PortEast
	case tx == fx-1:
		return PortWest
	case ty == fy+1:
		return PortSouth
	default:
		return PortNorth
	}
}

// maskFaults removes the faulted channels from the link table: the
// sender's output half is cleared (node = -1, like a mesh edge) and the
// receiver's facing input half forgets its upstream feeder, so any flit
// or credit that would cross the dead wire panics instead of silently
// traversing it.
func (n *Network) maskFaults(faults []Link) {
	for _, f := range faults {
		p := portTowards(&n.cfg, f.From, f.To)
		out := &n.links[int(f.From)*NumPorts+int(p)]
		out.node = -1
		out.port = 0
		in := &n.links[int(f.To)*NumPorts+int(p.Opposite())]
		in.upNode = -1
		in.target = 0
	}
}

// buildRouteTable computes the per-destination next-hop table over the
// surviving directed channels: entry cur*nodes+dst is the output port a
// packet at cur takes towards dst. Ports come from a reverse
// breadth-first search per destination, so every route is minimal on
// the faulted topology. Among shortest-path candidate ports the one
// dimension-ordered routing would pick is preferred when it survives
// (the table then reduces exactly to DOR on a fault-free mesh), falling
// back to the lowest-numbered candidate.
//
// The table guarantees minimal progress, not deadlock freedom: an
// adversarial fault set can reintroduce cyclic channel dependencies
// that XY routing excluded. The engine's saturation guards abort such
// runs instead of hanging.
func (n *Network) buildRouteTable() error {
	cfg := &n.cfg
	nodes := cfg.Nodes()
	yFirst := cfg.Routing == RoutingYX
	table := make([]int8, nodes*nodes)
	dist := make([]int32, nodes)
	queue := make([]NodeID, 0, nodes)
	for dst := 0; dst < nodes; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], NodeID(dst))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			// Relax every upstream node u with a surviving channel u→v.
			for p := PortNorth; p <= PortWest; p++ {
				dx, dy := p.delta()
				vx, vy := cfg.Coord(v)
				ux, uy := vx+dx, vy+dy
				if !cfg.InMesh(ux, uy) {
					continue
				}
				u := cfg.Node(ux, uy)
				if n.links[int(u)*NumPorts+int(p.Opposite())].node != int32(v) {
					continue // channel u→v is faulted
				}
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for cur := 0; cur < nodes; cur++ {
			if cur == dst {
				table[cur*nodes+dst] = int8(PortLocal)
				continue
			}
			if dist[cur] < 0 {
				return fmt.Errorf("noc: faults disconnect node %d from node %d", cur, dst)
			}
			preferred := routeDOR(cfg, NodeID(cur), NodeID(dst), yFirst)
			chosen := Port(-1)
			for p := PortNorth; p <= PortWest; p++ {
				next := n.links[cur*NumPorts+int(p)].node
				if next < 0 || dist[next] != dist[cur]-1 {
					continue
				}
				if p == preferred {
					chosen = p
					break
				}
				if chosen < 0 {
					chosen = p
				}
			}
			if chosen < 0 {
				// Unreachable: dist[cur] ≥ 1 implies a relaxed channel exists.
				panic("noc: route table found no next hop for a reachable node")
			}
			table[cur*nodes+dst] = int8(chosen)
		}
	}
	n.routeTable = table
	return nil
}

// routePort is the engine's route computation: the fault-aware table
// when one is installed, otherwise the algorithmic RoutePort.
func (n *Network) routePort(cur NodeID, p *Packet) Port {
	if n.routeTable != nil {
		return Port(n.routeTable[int(cur)*len(n.routers)+int(p.Dst)])
	}
	return RoutePort(&n.cfg, cur, p)
}
