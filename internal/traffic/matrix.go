package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/noc"
)

// MatrixPattern draws destinations from an explicit traffic matrix:
// weights[s][d] is the relative amount of traffic from s to d (any
// non-negative scale; rows are normalized internally). Nodes whose row sums
// to zero never inject — pair MatrixPattern with per-node rates via
// NewInjectorRates so such nodes get rate 0.
//
// This is the "custom traffic matrices" Booksim extension the paper built
// for the multimedia workloads of Sec. VI.
type MatrixPattern struct {
	// cum[s] is the cumulative distribution over destinations for source s
	// (empty when s sends nothing).
	cum [][]float64
	dst [][]noc.NodeID
}

// NewMatrixPattern validates weights and prepares per-source cumulative
// destination distributions.
func NewMatrixPattern(cfg noc.Config, weights [][]float64) (*MatrixPattern, error) {
	n := cfg.Nodes()
	if len(weights) != n {
		return nil, fmt.Errorf("traffic: matrix has %d rows for %d nodes", len(weights), n)
	}
	mp := &MatrixPattern{
		cum: make([][]float64, n),
		dst: make([][]noc.NodeID, n),
	}
	for s, row := range weights {
		if len(row) != n {
			return nil, fmt.Errorf("traffic: matrix row %d has %d columns for %d nodes", s, len(row), n)
		}
		total := 0.0
		for d, w := range row {
			if w < 0 {
				return nil, fmt.Errorf("traffic: negative weight at [%d][%d]", s, d)
			}
			if d == s && w != 0 {
				return nil, fmt.Errorf("traffic: self traffic at node %d", s)
			}
			total += w
		}
		if total == 0 {
			continue
		}
		acc := 0.0
		for d, w := range row {
			if w == 0 {
				continue
			}
			acc += w / total
			mp.cum[s] = append(mp.cum[s], acc)
			mp.dst[s] = append(mp.dst[s], noc.NodeID(d))
		}
		// Guard against floating-point shortfall at the top.
		mp.cum[s][len(mp.cum[s])-1] = 1
	}
	return mp, nil
}

// Dest implements Pattern. It panics if called for a source with no
// outgoing traffic; injectors must give such sources rate zero.
func (mp *MatrixPattern) Dest(src noc.NodeID, rng *rand.Rand) noc.NodeID {
	cum := mp.cum[src]
	if len(cum) == 0 {
		panic(fmt.Sprintf("traffic: Dest called for silent source %d", src))
	}
	x := rng.Float64()
	for i, c := range cum {
		if x < c {
			return mp.dst[src][i]
		}
	}
	return mp.dst[src][len(mp.dst[src])-1]
}

// RowRates converts an absolute weights matrix (e.g. packets per frame)
// into per-node relative injection rates proportional to each row sum,
// normalized so the *maximum* row equals 1. Multiply by the desired peak
// rate to get per-node flit rates.
func RowRates(weights [][]float64) ([]float64, error) {
	rates := make([]float64, len(weights))
	max := 0.0
	for s, row := range weights {
		sum := 0.0
		for _, w := range row {
			if w < 0 {
				return nil, fmt.Errorf("traffic: negative weight in row %d", s)
			}
			sum += w
		}
		rates[s] = sum
		if sum > max {
			max = sum
		}
	}
	if max == 0 {
		return rates, nil
	}
	for s := range rates {
		rates[s] /= max
	}
	return rates, nil
}
