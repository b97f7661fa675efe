package noc

import (
	"testing"
	"testing/quick"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Width != 5 || cfg.Height != 5 {
		t.Errorf("mesh = %dx%d, want 5x5", cfg.Width, cfg.Height)
	}
	if cfg.VCs != 8 {
		t.Errorf("VCs = %d, want 8", cfg.VCs)
	}
	if cfg.BufDepth != 4 {
		t.Errorf("BufDepth = %d, want 4", cfg.BufDepth)
	}
	if cfg.PacketSize != 20 {
		t.Errorf("PacketSize = %d, want 20", cfg.PacketSize)
	}
	if cfg.Routing != RoutingXY {
		t.Errorf("Routing = %v, want xy", cfg.Routing)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig()
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default", func(c *Config) {}, false},
		{"min mesh 1x2", func(c *Config) { c.Width, c.Height = 1, 2 }, false},
		{"zero width", func(c *Config) { c.Width = 0 }, true},
		{"negative height", func(c *Config) { c.Height = -3 }, true},
		{"single node", func(c *Config) { c.Width, c.Height = 1, 1 }, true},
		{"zero VCs", func(c *Config) { c.VCs = 0 }, true},
		{"one VC ok", func(c *Config) { c.VCs = 1 }, false},
		{"12 VCs ok", func(c *Config) { c.VCs = 12 }, false},
		{"13 VCs", func(c *Config) { c.VCs = 13 }, true},
		{"zero buffers", func(c *Config) { c.BufDepth = 0 }, true},
		{"zero packet size", func(c *Config) { c.PacketSize = 0 }, true},
		{"single flit packets ok", func(c *Config) { c.PacketSize = 1 }, false},
		{"bad routing", func(c *Config) { c.Routing = Routing(42) }, true},
		{"yx routing ok", func(c *Config) { c.Routing = RoutingYX }, false},
		{"o1turn ok", func(c *Config) { c.Routing = RoutingO1TURN }, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() error = %v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestConfigValidateJoinsAllErrors(t *testing.T) {
	cfg := Config{Width: 0, Height: 0, VCs: 0, BufDepth: 0, PacketSize: 0, Routing: Routing(9)}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("expected error for fully invalid config")
	}
}

func TestCoordNodeRoundTrip(t *testing.T) {
	cfg := Config{Width: 7, Height: 3}
	for id := 0; id < 21; id++ {
		x, y := cfg.Coord(NodeID(id))
		if !cfg.InMesh(x, y) {
			t.Fatalf("Coord(%d) = (%d,%d) outside mesh", id, x, y)
		}
		if got := cfg.Node(x, y); got != NodeID(id) {
			t.Fatalf("Node(Coord(%d)) = %d", id, got)
		}
	}
}

func TestCoordNodeRoundTripQuick(t *testing.T) {
	f := func(w, h uint8, raw uint16) bool {
		cfg := Config{Width: int(w%10) + 1, Height: int(h%10) + 1}
		id := NodeID(int(raw) % cfg.Nodes())
		x, y := cfg.Coord(id)
		return cfg.InMesh(x, y) && cfg.Node(x, y) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInMesh(t *testing.T) {
	cfg := Config{Width: 4, Height: 5}
	tests := []struct {
		x, y int
		want bool
	}{
		{0, 0, true}, {3, 4, true}, {4, 4, false}, {3, 5, false},
		{-1, 0, false}, {0, -1, false}, {2, 2, true},
	}
	for _, tc := range tests {
		if got := cfg.InMesh(tc.x, tc.y); got != tc.want {
			t.Errorf("InMesh(%d,%d) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestDistance(t *testing.T) {
	cfg := Config{Width: 5, Height: 5}
	tests := []struct {
		a, b NodeID
		want int
	}{
		{0, 0, 0},
		{0, 24, 8},  // (0,0) -> (4,4)
		{0, 4, 4},   // (0,0) -> (4,0)
		{0, 20, 4},  // (0,0) -> (0,4)
		{12, 12, 0}, // centre
		{2, 22, 4},  // (2,0) -> (2,4)
	}
	for _, tc := range tests {
		if got := cfg.Distance(tc.a, tc.b); got != tc.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := cfg.Distance(tc.b, tc.a); got != tc.want {
			t.Errorf("Distance(%d,%d) = %d, want %d (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestDistanceTriangleInequalityQuick(t *testing.T) {
	cfg := Config{Width: 6, Height: 6}
	f := func(a, b, c uint16) bool {
		n := NodeID(int(a) % cfg.Nodes())
		m := NodeID(int(b) % cfg.Nodes())
		k := NodeID(int(c) % cfg.Nodes())
		return cfg.Distance(n, m)+cfg.Distance(m, k) >= cfg.Distance(n, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRouting(t *testing.T) {
	for _, name := range []string{"xy", "yx", "o1turn"} {
		r, err := ParseRouting(name)
		if err != nil {
			t.Fatalf("ParseRouting(%q): %v", name, err)
		}
		if r.String() != name {
			t.Errorf("round trip %q -> %v", name, r)
		}
	}
	if _, err := ParseRouting("west-first"); err == nil {
		t.Error("ParseRouting accepted unknown algorithm")
	}
}

func TestRoutingString(t *testing.T) {
	if got := Routing(77).String(); got != "routing(77)" {
		t.Errorf("Routing(77).String() = %q", got)
	}
}

func TestNodes(t *testing.T) {
	tests := []struct {
		w, h, want int
	}{{4, 4, 16}, {5, 5, 25}, {8, 8, 64}, {1, 2, 2}}
	for _, tc := range tests {
		cfg := Config{Width: tc.w, Height: tc.h}
		if got := cfg.Nodes(); got != tc.want {
			t.Errorf("%dx%d Nodes() = %d, want %d", tc.w, tc.h, got, tc.want)
		}
	}
}
