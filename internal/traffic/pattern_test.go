package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/noc"
)

func cfg5() noc.Config {
	c := noc.DefaultConfig()
	return c
}

func TestUniformNeverSelf(t *testing.T) {
	u := NewUniform(cfg5())
	rng := rand.New(rand.NewSource(1))
	for src := 0; src < 25; src++ {
		for i := 0; i < 200; i++ {
			if d := u.Dest(noc.NodeID(src), rng); d == noc.NodeID(src) {
				t.Fatalf("uniform returned src %d", src)
			}
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	u := NewUniform(cfg5())
	rng := rand.New(rand.NewSource(2))
	seen := make(map[noc.NodeID]bool)
	for i := 0; i < 5000; i++ {
		seen[u.Dest(0, rng)] = true
	}
	if len(seen) != 24 {
		t.Errorf("uniform from node 0 reached %d destinations, want 24", len(seen))
	}
}

func TestUniformApproximatelyUniform(t *testing.T) {
	u := NewUniform(cfg5())
	rng := rand.New(rand.NewSource(3))
	counts := make(map[noc.NodeID]int)
	const trials = 48000
	for i := 0; i < trials; i++ {
		counts[u.Dest(12, rng)]++
	}
	want := float64(trials) / 24
	for d, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Errorf("destination %d drawn %d times, want ~%.0f", d, c, want)
		}
	}
}

func TestTornadoDefinition(t *testing.T) {
	// On a 5x5 mesh the tornado offset is ceil(5/2)-1 = 2 in each
	// dimension.
	cfg := cfg5()
	p := NewTornado(cfg).(*permutationPattern)
	tests := []struct{ src, want noc.NodeID }{
		{cfg.Node(0, 0), cfg.Node(2, 2)},
		{cfg.Node(4, 4), cfg.Node(1, 1)},
		{cfg.Node(3, 0), cfg.Node(0, 2)},
	}
	for _, tc := range tests {
		if got := p.Image(tc.src); got != tc.want {
			t.Errorf("tornado(%d) = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestBitComplementDefinition(t *testing.T) {
	cfg := cfg5()
	p := NewBitComplement(cfg).(*permutationPattern)
	tests := []struct{ src, want noc.NodeID }{
		{cfg.Node(0, 0), cfg.Node(4, 4)},
		{cfg.Node(4, 4), cfg.Node(0, 0)},
		{cfg.Node(1, 3), cfg.Node(3, 1)},
		{cfg.Node(2, 2), cfg.Node(2, 2)}, // centre is a fixed point on odd meshes
	}
	for _, tc := range tests {
		if got := p.Image(tc.src); got != tc.want {
			t.Errorf("bitcomp(%d) = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestTransposeDefinition(t *testing.T) {
	cfg := cfg5()
	pat, err := NewTranspose(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := pat.(*permutationPattern)
	if got := p.Image(cfg.Node(1, 3)); got != cfg.Node(3, 1) {
		t.Errorf("transpose(1,3) = %d, want node(3,1)", got)
	}
	if got := p.Image(cfg.Node(2, 2)); got != cfg.Node(2, 2) {
		t.Errorf("transpose diag should be fixed point")
	}
}

func TestTransposeRequiresSquare(t *testing.T) {
	cfg := cfg5()
	cfg.Width = 4
	if _, err := NewTranspose(cfg); err == nil {
		t.Error("transpose accepted non-square mesh")
	}
}

func TestNeighborDefinition(t *testing.T) {
	cfg := cfg5()
	p := NewNeighbor(cfg).(*permutationPattern)
	if got := p.Image(cfg.Node(0, 2)); got != cfg.Node(1, 2) {
		t.Errorf("neighbor(0,2) = %d", got)
	}
	if got := p.Image(cfg.Node(4, 2)); got != cfg.Node(0, 2) {
		t.Errorf("neighbor wraps: got %d", got)
	}
}

func TestPermutationPatternsAreBijections(t *testing.T) {
	cfg := cfg5()
	transpose, _ := NewTranspose(cfg)
	for i, pat := range []Pattern{NewTornado(cfg), NewBitComplement(cfg), transpose, NewNeighbor(cfg)} {
		p, name := pat.(*permutationPattern), PaperPatterns()[i]
		seen := make(map[noc.NodeID]bool)
		for id := 0; id < cfg.Nodes(); id++ {
			img := p.Image(noc.NodeID(id))
			if seen[img] {
				t.Errorf("%s: image %d hit twice", name, img)
			}
			seen[img] = true
		}
		if len(seen) != cfg.Nodes() {
			t.Errorf("%s: only %d images", name, len(seen))
		}
	}
}

func TestFixedPointFallsBackToUniform(t *testing.T) {
	cfg := cfg5()
	p := NewBitComplement(cfg)
	rng := rand.New(rand.NewSource(4))
	centre := cfg.Node(2, 2)
	for i := 0; i < 100; i++ {
		if d := p.Dest(centre, rng); d == centre {
			t.Fatal("fixed point returned itself")
		}
	}
}

func TestBitReverse(t *testing.T) {
	cfg := cfg5()
	cfg.Width, cfg.Height = 4, 4
	pat, err := NewBitReverse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := pat.(*permutationPattern)
	// 16 nodes, 4 bits: 0b0001 -> 0b1000.
	if got := p.Image(1); got != 8 {
		t.Errorf("bitrev(1) = %d, want 8", got)
	}
	if got := p.Image(6); got != 6 { // 0110 reversed is 0110
		t.Errorf("bitrev(6) = %d, want 6", got)
	}
}

func TestBitReverseRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := NewBitReverse(cfg5()); err == nil {
		t.Error("bitrev accepted 25 nodes")
	}
}

func TestShuffle(t *testing.T) {
	cfg := cfg5()
	cfg.Width, cfg.Height = 4, 4
	pat, err := NewShuffle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := pat.(*permutationPattern)
	// 4 bits: shuffle(0b0110)=0b1100=12; shuffle(0b1001)=0b0011=3.
	if got := p.Image(6); got != 12 {
		t.Errorf("shuffle(6) = %d, want 12", got)
	}
	if got := p.Image(9); got != 3 {
		t.Errorf("shuffle(9) = %d, want 3", got)
	}
}

func TestShuffleRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := NewShuffle(cfg5()); err == nil {
		t.Error("shuffle accepted 25 nodes")
	}
}

// TestByName checks ByName's dispatch: each name yields the traffic
// matrix of its own constructor, on a 5x5 mesh and, for the patterns
// that need a power-of-two node count, on a 4x4.
func TestByName(t *testing.T) {
	cfg := cfg5()
	cfg4 := cfg
	cfg4.Width, cfg4.Height = 4, 4
	transpose, _ := NewTranspose(cfg)
	bitrev, _ := NewBitReverse(cfg4)
	shuffle, _ := NewShuffle(cfg4)
	for _, c := range []struct {
		name string
		cfg  noc.Config
		want Pattern
	}{
		{"uniform", cfg, NewUniform(cfg)},
		{"tornado", cfg, NewTornado(cfg)},
		{"bitcomp", cfg, NewBitComplement(cfg)},
		{"transpose", cfg, transpose},
		{"neighbor", cfg, NewNeighbor(cfg)},
		{"bitrev", cfg4, bitrev},
		{"shuffle", cfg4, shuffle},
	} {
		p, err := ByName(c.name, c.cfg)
		if err != nil {
			t.Fatalf("ByName(%q): %v", c.name, err)
		}
		if !reflect.DeepEqual(Matrix(p, c.cfg), Matrix(c.want, c.cfg)) {
			t.Errorf("ByName(%q) draws another traffic matrix than its constructor", c.name)
		}
	}
	if _, err := ByName("nonsense", cfg); err == nil {
		t.Error("ByName accepted unknown pattern")
	}
	// bitrev/shuffle need power-of-two meshes; on 5x5 they must error.
	if _, err := ByName("bitrev", cfg); err == nil {
		t.Error("bitrev on 25 nodes should fail")
	}
}

func TestPaperPatterns(t *testing.T) {
	want := []string{"tornado", "bitcomp", "transpose", "neighbor"}
	got := PaperPatterns()
	if len(got) != len(want) {
		t.Fatalf("PaperPatterns() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PaperPatterns()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMatrixRowsSumToOne(t *testing.T) {
	cfg := cfg5()
	for _, name := range []string{"uniform", "tornado", "transpose", "neighbor"} {
		p, err := ByName(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := Matrix(p, cfg)
		for s, row := range m {
			sum := 0.0
			for d, w := range row {
				if d == s && w != 0 {
					t.Errorf("%s: self weight at %d", name, s)
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: row %d sums to %g", name, s, sum)
			}
		}
	}
}

func TestMatrixPermutationHasUnitEntries(t *testing.T) {
	cfg := cfg5()
	m := Matrix(NewNeighbor(cfg), cfg)
	for s := 0; s < cfg.Nodes(); s++ {
		ones := 0
		for _, w := range m[s] {
			if w == 1 {
				ones++
			}
		}
		if ones != 1 {
			t.Errorf("neighbor row %d has %d unit entries", s, ones)
		}
	}
}
