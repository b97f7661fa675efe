package noc

import (
	"errors"
	"fmt"
)

// Routing selects the deterministic routing algorithm used by the routers.
type Routing int

const (
	// RoutingXY is dimension-ordered routing, X first (the paper's choice).
	RoutingXY Routing = iota
	// RoutingYX is dimension-ordered routing, Y first.
	RoutingYX
	// RoutingO1TURN picks XY or YX uniformly at random per packet; it is
	// provided as an ablation beyond the paper.
	RoutingO1TURN
)

var routingNames = [...]string{"xy", "yx", "o1turn"}

// String returns the lower-case name of the routing algorithm.
func (r Routing) String() string {
	if r < 0 || int(r) >= len(routingNames) {
		return fmt.Sprintf("routing(%d)", int(r))
	}
	return routingNames[r]
}

// ParseRouting converts a name ("xy", "yx", "o1turn") to a Routing value.
func ParseRouting(s string) (Routing, error) {
	for i, n := range routingNames {
		if s == n {
			return Routing(i), nil
		}
	}
	return 0, fmt.Errorf("noc: unknown routing algorithm %q", s)
}

// Config describes the network fabric. The zero value is not usable; start
// from DefaultConfig and override fields as needed.
type Config struct {
	// Width and Height are the mesh dimensions in routers.
	Width, Height int
	// VCs is the number of virtual channels per input port.
	VCs int
	// BufDepth is the number of flit slots per virtual-channel buffer.
	BufDepth int
	// PacketSize is the packet length in flits.
	PacketSize int
	// Routing selects the routing algorithm.
	Routing Routing
}

// DefaultConfig returns the paper's baseline configuration: a 5x5 mesh with
// dimension-ordered (XY) routing, 8 virtual channels, 4 flit buffers per
// channel and 20-flit packets (Sec. III, Fig. 2).
func DefaultConfig() Config {
	return Config{
		Width:      5,
		Height:     5,
		VCs:        8,
		BufDepth:   4,
		PacketSize: 20,
		Routing:    RoutingXY,
	}
}

// Nodes returns the number of nodes in the mesh.
func (c Config) Nodes() int { return c.Width * c.Height }

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	var errs []error
	if c.Width < 1 || c.Height < 1 {
		errs = append(errs, fmt.Errorf("mesh dimensions must be at least 1x1, got %dx%d", c.Width, c.Height))
	}
	if c.Width*c.Height < 2 {
		errs = append(errs, errors.New("mesh must contain at least 2 nodes"))
	}
	if c.Width*c.Height > 16384 {
		// The staged link-event word packs node ids into 14 bits.
		errs = append(errs, fmt.Errorf("at most 16384 nodes are supported, got %dx%d", c.Width, c.Height))
	}
	if c.VCs < 1 {
		errs = append(errs, fmt.Errorf("need at least 1 virtual channel, got %d", c.VCs))
	}
	if NumPorts*c.VCs > 64 {
		// The VC allocator keeps one request bit per input VC of a router
		// (NumPorts*VCs of them) in a single 64-bit word.
		errs = append(errs, fmt.Errorf("at most %d virtual channels are supported (%d ports x VCs must fit a 64-bit allocator mask), got %d", 64/NumPorts, NumPorts, c.VCs))
	}
	if c.BufDepth < 1 {
		errs = append(errs, fmt.Errorf("need at least 1 buffer slot per VC, got %d", c.BufDepth))
	}
	if c.BufDepth > 255 {
		// The packed per-VC pipeline record stores ring head/length as bytes.
		errs = append(errs, fmt.Errorf("at most 255 buffer slots per VC are supported, got %d", c.BufDepth))
	}
	if c.PacketSize < 1 {
		errs = append(errs, fmt.Errorf("packet size must be at least 1 flit, got %d", c.PacketSize))
	}
	if c.Routing < RoutingXY || c.Routing > RoutingO1TURN {
		errs = append(errs, fmt.Errorf("unknown routing algorithm %d", c.Routing))
	}
	return errors.Join(errs...)
}

// Coord returns the (x, y) mesh coordinates of node id.
func (c Config) Coord(id NodeID) (x, y int) {
	return int(id) % c.Width, int(id) / c.Width
}

// Node returns the node id at mesh coordinates (x, y).
func (c Config) Node(x, y int) NodeID {
	return NodeID(y*c.Width + x)
}

// InMesh reports whether (x, y) lies inside the mesh.
func (c Config) InMesh(x, y int) bool {
	return x >= 0 && x < c.Width && y >= 0 && y < c.Height
}

// Distance returns the Manhattan (hop) distance between two nodes.
func (c Config) Distance(a, b NodeID) int {
	ax, ay := c.Coord(a)
	bx, by := c.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
