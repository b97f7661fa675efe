package noc

import (
	"math"
	"testing"
)

// uniformMatrix returns the uniform-random traffic matrix over n nodes:
// every source spreads its traffic evenly over the n-1 other nodes.
func uniformMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for s := range m {
		m[s] = make([]float64, n)
		for d := range m[s] {
			if s != d {
				m[s][d] = 1 / float64(n-1)
			}
		}
	}
	return m
}

// channel is the index of node id's output port p in a channel-load
// vector.
func channel(id NodeID, p Port) int { return int(id)*NumPorts + int(p) }

// loadsOf returns the channel loads of m on cfg's healthy mesh.
func loadsOf(t *testing.T, cfg Config, m [][]float64) []float64 {
	t.Helper()
	loads, err := channelLoads(cfg, nil, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return loads
}

// capacityOf returns the theoretical capacity of m on cfg's healthy mesh.
func capacityOf(t *testing.T, cfg Config, m [][]float64) float64 {
	t.Helper()
	c, err := TheoreticalCapacity(cfg, nil, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChannelLoadsSinglePair(t *testing.T) {
	// One source sending all traffic (0,0)->(2,0): the route traverses
	// two east channels, each with load 1.
	cfg := Config{Width: 3, Height: 1, Routing: RoutingXY}
	m := make([][]float64, 3)
	for i := range m {
		m[i] = make([]float64, 3)
	}
	m[0][2] = 1
	loads := loadsOf(t, cfg, m)
	if got := loads[channel(0, PortEast)]; got != 1 {
		t.Errorf("channel (0,east) load = %g, want 1", got)
	}
	if got := loads[channel(1, PortEast)]; got != 1 {
		t.Errorf("channel (1,east) load = %g, want 1", got)
	}
	if got := capacityOf(t, cfg, m); got != 1 {
		t.Errorf("capacity = %g, want 1", got)
	}
}

func TestChannelLoadsMatchBruteForceTrace(t *testing.T) {
	// channelLoads must agree with an independent accumulation along
	// routeTrace.
	cfg := Config{Width: 4, Height: 3, Routing: RoutingXY}
	m := uniformMatrix(cfg.Nodes())
	got := loadsOf(t, cfg, m)
	want := make([]float64, cfg.Nodes()*NumPorts)
	for s := 0; s < cfg.Nodes(); s++ {
		for d := 0; d < cfg.Nodes(); d++ {
			if s == d {
				continue
			}
			trace := routeTrace(&cfg, NodeID(s), NodeID(d), false)
			for i := 0; i+1 < len(trace); i++ {
				// Identify the port used between consecutive nodes.
				x0, y0 := cfg.Coord(trace[i])
				x1, y1 := cfg.Coord(trace[i+1])
				var p Port
				switch {
				case x1 == x0+1:
					p = PortEast
				case x1 == x0-1:
					p = PortWest
				case y1 == y0+1:
					p = PortSouth
				default:
					p = PortNorth
				}
				want[channel(trace[i], p)] += m[s][d]
			}
		}
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("channel %d: load %g, want %g", i, got[i], want[i])
		}
	}
}

func TestTheoreticalCapacityUniform5x5(t *testing.T) {
	// For uniform traffic on a k x k mesh under XY routing the most loaded
	// channels are the vertical bisection channels; the classic result for
	// odd k gives capacity close to 4k/(k^2-1) (≈0.833 for k=5, per-node,
	// with self-traffic excluded). Accept a generous band and symmetry.
	cfg := Config{Width: 5, Height: 5, Routing: RoutingXY}
	cap5 := capacityOf(t, cfg, uniformMatrix(25))
	if cap5 < 0.6 || cap5 > 1.0 {
		t.Errorf("5x5 uniform capacity = %g, want in [0.6, 1.0]", cap5)
	}
	// Capacity must shrink as the mesh grows.
	cfg8 := Config{Width: 8, Height: 8, Routing: RoutingXY}
	cap8 := capacityOf(t, cfg8, uniformMatrix(64))
	if cap8 >= cap5 {
		t.Errorf("8x8 capacity %g not below 5x5 capacity %g", cap8, cap5)
	}
	cfg4 := Config{Width: 4, Height: 4, Routing: RoutingXY}
	cap4 := capacityOf(t, cfg4, uniformMatrix(16))
	if cap4 <= cap5 {
		t.Errorf("4x4 capacity %g not above 5x5 capacity %g", cap4, cap5)
	}
}

func TestChannelLoadsO1TURNSplitsTraffic(t *testing.T) {
	cfg := Config{Width: 3, Height: 3, Routing: RoutingO1TURN}
	m := make([][]float64, 9)
	for i := range m {
		m[i] = make([]float64, 9)
	}
	m[0][8] = 1 // (0,0) -> (2,2)
	loads := loadsOf(t, cfg, m)
	// XY half goes east from node 0; YX half goes south from node 0.
	if got := loads[channel(0, PortEast)]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("east load = %g, want 0.5", got)
	}
	if got := loads[channel(0, PortSouth)]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("south load = %g, want 0.5", got)
	}
}

func TestTheoreticalCapacityEmptyMatrix(t *testing.T) {
	cfg := Config{Width: 3, Height: 3, Routing: RoutingXY}
	m := make([][]float64, 9)
	for i := range m {
		m[i] = make([]float64, 9)
	}
	if got := capacityOf(t, cfg, m); got != 0 {
		t.Errorf("capacity of empty matrix = %g, want 0", got)
	}
}

func TestChannelLoadsYXDiffersFromXY(t *testing.T) {
	cfgXY := Config{Width: 4, Height: 4, Routing: RoutingXY}
	cfgYX := Config{Width: 4, Height: 4, Routing: RoutingYX}
	m := make([][]float64, 16)
	for i := range m {
		m[i] = make([]float64, 16)
	}
	m[0][15] = 1 // corner to corner
	lXY := loadsOf(t, cfgXY, m)
	lYX := loadsOf(t, cfgYX, m)
	if lXY[channel(0, PortEast)] != 1 {
		t.Error("XY should leave node 0 eastwards")
	}
	if lYX[channel(0, PortSouth)] != 1 {
		t.Error("YX should leave node 0 southwards")
	}
}
