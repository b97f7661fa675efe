// Package traffic generates the workloads of the paper: Bernoulli
// injection processes in the node clock domain, the synthetic destination
// patterns of Sec. V (uniform, tornado, bit-complement, transpose,
// neighbor, plus bit-reverse and shuffle as extensions), and
// arbitrary traffic matrices for the multimedia applications of Sec. VI.
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/noc"
)

// Pattern maps a source node to a destination for each generated packet.
// Implementations must be deterministic given the supplied rng.
type Pattern interface {
	// Dest picks the destination for a packet injected at src. It must
	// never return src itself.
	Dest(src noc.NodeID, rng *rand.Rand) noc.NodeID
}

// Uniform sends each packet to a destination chosen uniformly at random
// among all other nodes.
type Uniform struct {
	cfg noc.Config
}

// NewUniform returns the uniform-random pattern for cfg's mesh.
func NewUniform(cfg noc.Config) Uniform { return Uniform{cfg: cfg} }

// Dest implements Pattern.
func (u Uniform) Dest(src noc.NodeID, rng *rand.Rand) noc.NodeID {
	n := u.cfg.Nodes()
	d := rng.Intn(n - 1)
	if d >= int(src) {
		d++
	}
	return noc.NodeID(d)
}

// permutationPattern is a deterministic pattern defined by a coordinate
// permutation. Sources whose image equals themselves fall back to the
// uniform pattern so that every node still injects (matching Booksim's
// handling of fixed points).
type permutationPattern struct {
	dst []noc.NodeID
	uni Uniform
}

// Dest implements Pattern.
func (p *permutationPattern) Dest(src noc.NodeID, rng *rand.Rand) noc.NodeID {
	d := p.dst[src]
	if d == src {
		return p.uni.Dest(src, rng)
	}
	return d
}

// Image returns the permutation image of src (possibly src itself for
// fixed points); exposed for analysis and tests.
func (p *permutationPattern) Image(src noc.NodeID) noc.NodeID { return p.dst[src] }

func newPermutation(cfg noc.Config, f func(x, y int) (int, int)) *permutationPattern {
	p := &permutationPattern{uni: NewUniform(cfg)}
	p.dst = make([]noc.NodeID, cfg.Nodes())
	for id := 0; id < cfg.Nodes(); id++ {
		x, y := cfg.Coord(noc.NodeID(id))
		dx, dy := f(x, y)
		p.dst[id] = cfg.Node(dx, dy)
	}
	return p
}

// NewTornado returns the tornado pattern: each node sends halfway around
// each dimension, dst = ((x + ceil(k/2) - 1) mod kx, (y + ceil(k/2) - 1)
// mod ky). On a mesh (no wraparound links) this stresses the central
// channels heavily.
func NewTornado(cfg noc.Config) Pattern {
	return newPermutation(cfg, func(x, y int) (int, int) {
		return (x + (cfg.Width+1)/2 - 1) % cfg.Width, (y + (cfg.Height+1)/2 - 1) % cfg.Height
	})
}

// NewBitComplement returns the bit-complement pattern, realized on
// arbitrary mesh sizes as the coordinate complement dst = (kx-1-x, ky-1-y).
func NewBitComplement(cfg noc.Config) Pattern {
	return newPermutation(cfg, func(x, y int) (int, int) {
		return cfg.Width - 1 - x, cfg.Height - 1 - y
	})
}

// NewTranspose returns the transpose pattern dst = (y, x). It requires a
// square mesh.
func NewTranspose(cfg noc.Config) (Pattern, error) {
	if cfg.Width != cfg.Height {
		return nil, fmt.Errorf("traffic: transpose needs a square mesh, got %dx%d", cfg.Width, cfg.Height)
	}
	return newPermutation(cfg, func(x, y int) (int, int) {
		return y, x
	}), nil
}

// NewNeighbor returns the nearest-neighbor pattern dst = ((x+1) mod kx, y).
func NewNeighbor(cfg noc.Config) Pattern {
	return newPermutation(cfg, func(x, y int) (int, int) {
		return (x + 1) % cfg.Width, y
	})
}

// NewBitReverse returns the bit-reverse pattern on the node index; the
// node count must be a power of two (e.g. a 4x4 or 8x8 mesh).
func NewBitReverse(cfg noc.Config) (Pattern, error) {
	n := cfg.Nodes()
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if 1<<bits != n {
		return nil, fmt.Errorf("traffic: bitrev needs a power-of-two node count, got %d", n)
	}
	p := &permutationPattern{uni: NewUniform(cfg)}
	p.dst = make([]noc.NodeID, n)
	for id := 0; id < n; id++ {
		rev := 0
		for b := 0; b < bits; b++ {
			if id&(1<<b) != 0 {
				rev |= 1 << (bits - 1 - b)
			}
		}
		p.dst[id] = noc.NodeID(rev)
	}
	return p, nil
}

// NewShuffle returns the perfect-shuffle pattern dst = rotate-left(src) on
// the node index bits; the node count must be a power of two.
func NewShuffle(cfg noc.Config) (Pattern, error) {
	n := cfg.Nodes()
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if 1<<bits != n {
		return nil, fmt.Errorf("traffic: shuffle needs a power-of-two node count, got %d", n)
	}
	p := &permutationPattern{uni: NewUniform(cfg)}
	p.dst = make([]noc.NodeID, n)
	for id := 0; id < n; id++ {
		p.dst[id] = noc.NodeID(((id << 1) | (id >> (bits - 1))) & (n - 1))
	}
	return p, nil
}

// ByName constructs one of the paper's named patterns for cfg. Recognized
// names: uniform, tornado, bitcomp, transpose, neighbor, bitrev, shuffle.
func ByName(name string, cfg noc.Config) (Pattern, error) {
	switch name {
	case "uniform":
		return NewUniform(cfg), nil
	case "tornado":
		return NewTornado(cfg), nil
	case "bitcomp":
		return NewBitComplement(cfg), nil
	case "transpose":
		return NewTranspose(cfg)
	case "neighbor":
		return NewNeighbor(cfg), nil
	case "bitrev":
		return NewBitReverse(cfg)
	case "shuffle":
		return NewShuffle(cfg)
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// PaperPatterns lists the four synthetic patterns of Fig. 7 in paper order.
func PaperPatterns() []string {
	return []string{"tornado", "bitcomp", "transpose", "neighbor"}
}

// Matrix returns the normalized traffic matrix induced by the pattern:
// m[s][d] is the fraction of s's packets destined to d. Uniform rows are
// expanded analytically; deterministic permutations get a single 1 per
// row (or a uniform row for fixed points); a matrix pattern expands its
// own distribution. The switch covers every pattern type of the package.
func Matrix(p Pattern, cfg noc.Config) [][]float64 {
	n := cfg.Nodes()
	m := make([][]float64, n)
	uniformRow := func(s int) {
		for d := 0; d < n; d++ {
			if d != s {
				m[s][d] = 1 / float64(n-1)
			}
		}
	}
	for s := 0; s < n; s++ {
		m[s] = make([]float64, n)
		switch pt := p.(type) {
		case Uniform:
			uniformRow(s)
		case *permutationPattern:
			d := pt.Image(noc.NodeID(s))
			if d == noc.NodeID(s) {
				uniformRow(s)
			} else {
				m[s][d] = 1
			}
		case *MatrixPattern:
			// Silent sources keep an all-zero row (they inject at rate 0).
			prev := 0.0
			for i, c := range pt.cum[s] {
				m[s][pt.dst[s][i]] = c - prev
				prev = c
			}
		default:
			panic(fmt.Sprintf("traffic: no matrix for pattern type %T", p))
		}
	}
	return m
}
