package noc

import "fmt"

// Island is one rectangular voltage/frequency region of the mesh:
// routers and injection serializers with X0 ≤ x ≤ X1 and Y0 ≤ y ≤ Y1 run
// their pipelines at Speed times the network clock (a static relative
// divider layered under whatever global frequency the DVFS policy
// commands). Later islands win where rectangles overlap; tiles covered
// by no island run at full speed.
type Island struct {
	X0 int `json:"x0"`
	Y0 int `json:"y0"`
	X1 int `json:"x1"`
	Y1 int `json:"y1"`
	// Speed is the relative clock multiplier in (0, 1].
	Speed float64 `json:"speed"`
}

// Contains reports whether the tile (x, y) lies inside the rectangle.
func (i Island) Contains(x, y int) bool {
	return x >= i.X0 && x <= i.X1 && y >= i.Y0 && y <= i.Y1
}

// islandAt returns the index of the island node id of cfg's mesh runs
// in, -1 for none; later islands win where rectangles overlap.
func islandAt(cfg *Config, islands []Island, id NodeID) int {
	x, y := cfg.Coord(id)
	k := -1
	for i, isl := range islands {
		if isl.Contains(x, y) {
			k = i
		}
	}
	return k
}

// ValidateIslands checks every rectangle lies inside cfg's mesh with a
// usable speed.
func ValidateIslands(cfg Config, islands []Island) error {
	for k, isl := range islands {
		if isl.X0 > isl.X1 || isl.Y0 > isl.Y1 {
			return fmt.Errorf("noc: island %d rectangle (%d,%d)-(%d,%d) is empty", k, isl.X0, isl.Y0, isl.X1, isl.Y1)
		}
		if !cfg.InMesh(isl.X0, isl.Y0) || !cfg.InMesh(isl.X1, isl.Y1) {
			return fmt.Errorf("noc: island %d rectangle (%d,%d)-(%d,%d) exceeds the %dx%d mesh",
				k, isl.X0, isl.Y0, isl.X1, isl.Y1, cfg.Width, cfg.Height)
		}
		if !(isl.Speed > 0 && isl.Speed <= 1) {
			return fmt.Errorf("noc: island %d speed %g outside (0, 1]", k, isl.Speed)
		}
	}
	return nil
}

// SetIslands installs per-region clock dividers. The network must be
// quiescent (freshly built or drained): island phase accumulators start
// at zero, and retrofitting them mid-flight would change results.
// Passing an empty slice removes all islands.
func (n *Network) SetIslands(islands []Island) error {
	if err := ValidateIslands(n.cfg, islands); err != nil {
		return err
	}
	if !n.Quiescent() {
		panic("noc: SetIslands requires a quiescent network")
	}
	if len(islands) == 0 {
		n.islandOf = nil
		n.islandAcc = nil
		n.islandRun = nil
		n.islands = nil
		return nil
	}
	n.islands = append([]Island(nil), islands...)
	n.islandOf = make([]int16, len(n.routers))
	for id := range n.islandOf {
		n.islandOf[id] = int16(islandAt(&n.cfg, islands, NodeID(id)))
	}
	n.islandAcc = make([]float64, len(islands))
	n.islandRun = make([]bool, len(islands))
	return nil
}

// advanceIslands ticks every island's fractional clock accumulator by
// its speed and decides whether the island's routers run this cycle. It
// runs unconditionally at the top of Step — before the quiescent fast
// path returns — so the stall phase does not depend on whether a cycle
// was skipped.
func (n *Network) advanceIslands() {
	for k := range n.islandAcc {
		n.islandAcc[k] += n.islands[k].Speed
		if n.islandAcc[k] >= 1 {
			n.islandAcc[k]--
			n.islandRun[k] = true
		} else {
			n.islandRun[k] = false
		}
	}
}

// nodeStalled reports whether node id sits in an island that skips this
// cycle. Stalled routers and sources keep their state and active-set
// membership; arrivals and credits still land (input latches run at the
// link clock), but no pipeline stage or injection serializer advances —
// and therefore no credits return upstream — which is what produces the
// natural backpressure onto faster neighbours.
func (n *Network) nodeStalled(id int) bool {
	k := n.islandOf[id]
	return k >= 0 && !n.islandRun[k]
}
