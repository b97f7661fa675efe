package noc

// channelLoads computes, for a normalized traffic matrix m (m[s][d] is the
// fraction of node s's injected flits destined to node d, with rows summing
// to at most 1), the load placed on every directed mesh channel when every
// node injects at rate 1 flit per cycle. Traffic follows the engine's own
// routes: the fault-aware route table when faults are masked, otherwise
// RoutePort, with O1TURN's traffic split evenly over XY and YX. A router
// in an island of speed s sends at most s flits per network cycle, so the
// load on each channel is divided by the speed of the router driving it.
// The result is indexed by node*NumPorts+port, in flits per cycle.
//
// The theoretical per-node capacity of the network under this matrix is
// 1/maxLoad: no injection rate above it can be sustained because the most
// loaded channel would have to carry more than it can send. The
// simulator's measured saturation rate is lower (allocator and buffer
// limits); the bound seeds the saturation search.
func channelLoads(cfg Config, faults []Link, islands []Island, m [][]float64) ([]float64, error) {
	if err := ValidateIslands(cfg, islands); err != nil {
		return nil, err
	}
	route := func(cur NodeID, p *Packet) Port { return RoutePort(&cfg, cur, p) }
	if len(faults) > 0 {
		n, err := NewNetworkWithFaults(cfg, faults)
		if err != nil {
			return nil, err
		}
		route = n.routePort
	}
	speed := func(id NodeID) float64 {
		if k := islandAt(&cfg, islands, id); k >= 0 {
			return islands[k].Speed
		}
		return 1
	}
	nodes := cfg.Nodes()
	loads := make([]float64, nodes*NumPorts)
	walk := func(p *Packet, w float64) {
		for cur := p.Src; cur != p.Dst; {
			port := route(cur, p)
			loads[int(cur)*NumPorts+int(port)] += w / speed(cur)
			dx, dy := port.delta()
			x, y := cfg.Coord(cur)
			cur = cfg.Node(x+dx, y+dy)
		}
	}
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			w := m[s][d]
			if s == d || w == 0 {
				continue
			}
			p := Packet{Src: NodeID(s), Dst: NodeID(d)}
			if cfg.Routing == RoutingO1TURN {
				walk(&p, w/2)
				p.DimOrder = 1
				walk(&p, w/2)
				continue
			}
			walk(&p, w)
		}
	}
	return loads, nil
}

// TheoreticalCapacity returns the per-node injection-rate upper bound
// (flits per node per cycle) for the matrix m on cfg's mesh with faults
// masked and islands installed: 1 / the maximum channel load. It returns
// 0 for an empty matrix, which callers should treat as "no traffic, no
// bound", and an error when the faults or islands are invalid or the
// faults disconnect the mesh.
func TheoreticalCapacity(cfg Config, faults []Link, islands []Island, m [][]float64) (float64, error) {
	loads, err := channelLoads(cfg, faults, islands, m)
	if err != nil {
		return 0, err
	}
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	if max == 0 {
		return 0, nil
	}
	return 1 / max, nil
}
