package noc

import (
	"testing"
	"testing/quick"
)

// routeTrace returns the nodes a packet from src to dst visits under the
// given dimension order (yFirst selects YX), both endpoints included.
func routeTrace(cfg *Config, src, dst NodeID, yFirst bool) []NodeID {
	trace := []NodeID{src}
	for cur := src; cur != dst; {
		dx, dy := routeDOR(cfg, cur, dst, yFirst).delta()
		x, y := cfg.Coord(cur)
		cur = cfg.Node(x+dx, y+dy)
		trace = append(trace, cur)
	}
	return trace
}

func TestRouteDORXY(t *testing.T) {
	cfg := Config{Width: 5, Height: 5}
	tests := []struct {
		name     string
		cur, dst NodeID
		want     Port
	}{
		{"east first", 0, 24, PortEast},          // (0,0)->(4,4): X first
		{"west first", 4, 20, PortWest},          // (4,0)->(0,4)
		{"south when aligned", 2, 22, PortSouth}, // (2,0)->(2,4)
		{"north when aligned", 22, 2, PortNorth},
		{"local at destination", 12, 12, PortLocal},
		{"east one", 0, 1, PortEast},
		{"west one", 1, 0, PortWest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := routeDOR(&cfg, tc.cur, tc.dst, false); got != tc.want {
				t.Errorf("routeDOR(%d->%d, XY) = %v, want %v", tc.cur, tc.dst, got, tc.want)
			}
		})
	}
}

func TestRouteDORYX(t *testing.T) {
	cfg := Config{Width: 5, Height: 5}
	tests := []struct {
		cur, dst NodeID
		want     Port
	}{
		{0, 24, PortSouth}, // YX goes south first
		{24, 0, PortNorth},
		{0, 4, PortEast}, // aligned in Y: X move
		{12, 12, PortLocal},
	}
	for _, tc := range tests {
		if got := routeDOR(&cfg, tc.cur, tc.dst, true); got != tc.want {
			t.Errorf("routeDOR(%d->%d, YX) = %v, want %v", tc.cur, tc.dst, got, tc.want)
		}
	}
}

func TestRoutePortHonoursConfig(t *testing.T) {
	cfgXY := Config{Width: 5, Height: 5, Routing: RoutingXY}
	cfgYX := Config{Width: 5, Height: 5, Routing: RoutingYX}
	p := &Packet{Src: 0, Dst: 24}
	if got := RoutePort(&cfgXY, 0, p); got != PortEast {
		t.Errorf("XY RoutePort = %v, want east", got)
	}
	if got := RoutePort(&cfgYX, 0, p); got != PortSouth {
		t.Errorf("YX RoutePort = %v, want south", got)
	}
}

func TestRoutePortO1TURNUsesDimOrder(t *testing.T) {
	cfg := Config{Width: 5, Height: 5, Routing: RoutingO1TURN}
	pXY := &Packet{Src: 0, Dst: 24, DimOrder: 0}
	pYX := &Packet{Src: 0, Dst: 24, DimOrder: 1}
	if got := RoutePort(&cfg, 0, pXY); got != PortEast {
		t.Errorf("O1TURN DimOrder=0 = %v, want east", got)
	}
	if got := RoutePort(&cfg, 0, pYX); got != PortSouth {
		t.Errorf("O1TURN DimOrder=1 = %v, want south", got)
	}
}

func TestRouteTraceLengthIsDistance(t *testing.T) {
	cfg := Config{Width: 6, Height: 4}
	for src := 0; src < cfg.Nodes(); src++ {
		for dst := 0; dst < cfg.Nodes(); dst++ {
			for _, yFirst := range []bool{false, true} {
				trace := routeTrace(&cfg, NodeID(src), NodeID(dst), yFirst)
				wantLen := cfg.Distance(NodeID(src), NodeID(dst)) + 1
				if len(trace) != wantLen {
					t.Fatalf("trace %d->%d yFirst=%v: len=%d want %d",
						src, dst, yFirst, len(trace), wantLen)
				}
				if trace[0] != NodeID(src) || trace[len(trace)-1] != NodeID(dst) {
					t.Fatalf("trace endpoints wrong: %v", trace)
				}
			}
		}
	}
}

func TestRouteTraceMonotoneProgress(t *testing.T) {
	// Every step of a dimension-ordered route strictly decreases the
	// Manhattan distance to the destination (minimal routing).
	cfg := Config{Width: 8, Height: 8}
	f := func(a, b uint16, yFirst bool) bool {
		src := NodeID(int(a) % cfg.Nodes())
		dst := NodeID(int(b) % cfg.Nodes())
		trace := routeTrace(&cfg, src, dst, yFirst)
		for i := 1; i < len(trace); i++ {
			if cfg.Distance(trace[i], dst) != cfg.Distance(trace[i-1], dst)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXYTraceTurnsAtMostOnce(t *testing.T) {
	// Dimension-ordered XY routes consist of a horizontal segment followed
	// by a vertical segment: once the route moves vertically it never
	// moves horizontally again.
	cfg := Config{Width: 7, Height: 7}
	for src := 0; src < cfg.Nodes(); src += 3 {
		for dst := 0; dst < cfg.Nodes(); dst += 2 {
			trace := routeTrace(&cfg, NodeID(src), NodeID(dst), false)
			vertical := false
			for i := 1; i < len(trace); i++ {
				x0, _ := cfg.Coord(trace[i-1])
				x1, _ := cfg.Coord(trace[i])
				if x0 != x1 {
					if vertical {
						t.Fatalf("XY route %d->%d moved horizontally after turning: %v", src, dst, trace)
					}
				} else {
					vertical = true
				}
			}
		}
	}
}
