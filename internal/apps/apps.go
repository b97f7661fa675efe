// Package apps provides the two multimedia workloads of the paper's
// Sec. VI: an H.264/MPEG-4 encoder mapped on a 4x4 mesh and a Video
// Conference Encoder (VCE) mapped on a 5x5 mesh, both taken from Latif's
// MPSoC design-space-exploration benchmark suite (paper ref. [13]) and
// shown as annotated communication graphs in Fig. 9.
//
// Each application is a directed graph: vertices are computation blocks
// pinned to mesh tiles, and edge weights are packets exchanged per encoded
// frame. The graphs below are a best-effort transcription of Fig. 9: the
// block lists and the edge-weight multiset come straight from the figure,
// while a handful of edge endpoints that are ambiguous in the figure
// artwork were resolved from the standard dataflow of an H.264 encoder
// (ME/MC prediction loop, DCT->Q->IQ->IDCT reconstruction, deblocking
// reference path, entropy-coded output). The experiments depend on the
// weighted hop-length distribution of the traffic, which this
// reconstruction preserves; see README.md § What was substituted.
package apps

import (
	"errors"
	"fmt"

	"repro/internal/noc"
	"repro/internal/traffic"
)

// Block is one computation vertex of an application graph, pinned to a
// mesh tile.
type Block struct {
	Name string
	X, Y int
}

// Edge is one communication arc with its traffic demand in packets per
// encoded frame.
type Edge struct {
	From, To        string
	PacketsPerFrame float64
}

// App is a mapped application communication graph.
type App struct {
	// Name identifies the application ("h264" or "vce").
	Name string
	// Width and Height are the mesh the mapping targets (4x4 for H.264,
	// 5x5 for VCE, as in Fig. 9).
	Width, Height int
	// Blocks are the computation vertices with their tile coordinates.
	Blocks []Block
	// Edges are the communication arcs.
	Edges []Edge
}

// H264 returns the MPEG-4/H.264 encoder graph of Fig. 9(a): 15 blocks on
// a 4x4 mesh (one tile idle), 19 edges.
func H264() App {
	return App{
		Name:  "h264",
		Width: 4, Height: 4,
		Blocks: []Block{
			{"video_in", 0, 0}, {"yuv_gen", 1, 0}, {"padding_mv", 2, 0}, {"motion_est", 3, 0},
			{"chroma_resampler", 0, 1}, {"motion_comp", 1, 1}, {"dct", 2, 1}, {"quant", 3, 1},
			{"predictor", 0, 2}, {"idct", 1, 2}, {"iq", 2, 2}, {"entropy_enc", 3, 2},
			{"sample_hold", 0, 3}, {"deblocking", 1, 3}, {"stream_out", 2, 3},
		},
		Edges: []Edge{
			{"video_in", "yuv_gen", 420},
			{"yuv_gen", "padding_mv", 840},
			{"padding_mv", "motion_est", 280},
			{"yuv_gen", "motion_est", 280},
			{"motion_est", "motion_comp", 280},
			{"yuv_gen", "motion_comp", 560},
			{"motion_comp", "dct", 140},
			{"dct", "quant", 420},
			{"quant", "iq", 210},
			{"quant", "entropy_enc", 66},
			{"iq", "idct", 3},
			{"idct", "predictor", 3},
			{"predictor", "motion_comp", 228},
			{"entropy_enc", "stream_out", 66},
			{"deblocking", "sample_hold", 24},
			{"idct", "deblocking", 60},
			{"sample_hold", "stream_out", 24},
			{"chroma_resampler", "predictor", 221},
			{"deblocking", "motion_est", 228},
		},
	}
}

// VCE returns the Video Conference Encoder graph of Fig. 9(b): 25 blocks
// on a 5x5 mesh (video encoder, audio encoder, and OFDM transmit chain),
// 31 edges.
func VCE() App {
	return App{
		Name:  "vce",
		Width: 5, Height: 5,
		Blocks: []Block{
			{"video_in_mem", 0, 0}, {"yuv_gen", 1, 0}, {"padding_mv", 2, 0}, {"motion_est", 3, 0}, {"deblocking", 4, 0},
			{"chroma_resampler", 0, 1}, {"motion_comp", 1, 1}, {"dct", 2, 1}, {"quant", 3, 1}, {"iq", 4, 1},
			{"predictor", 0, 2}, {"sample_hold", 1, 2}, {"idct", 2, 2}, {"entropy_enc", 3, 2}, {"stream_mux", 4, 2},
			{"audio_in", 0, 3}, {"filter_bank", 1, 3}, {"mdct", 2, 3}, {"psts_mux", 3, 3}, {"sram", 4, 3},
			{"quantizer_a", 0, 4}, {"huffman", 1, 4}, {"fft", 2, 4}, {"ifft", 3, 4}, {"ofdm", 4, 4},
		},
		Edges: []Edge{
			// Video encoder pipeline (mirrors the H.264 graph at VCE scale).
			{"video_in_mem", "yuv_gen", 4200},
			{"yuv_gen", "padding_mv", 8400},
			{"padding_mv", "motion_est", 2800},
			{"motion_est", "motion_comp", 2800},
			{"yuv_gen", "motion_comp", 5600},
			{"motion_comp", "dct", 2800},
			{"dct", "quant", 1400},
			{"quant", "iq", 2280},
			{"quant", "entropy_enc", 4200},
			{"iq", "idct", 2280},
			{"idct", "deblocking", 2210},
			{"deblocking", "motion_est", 4200},
			{"deblocking", "sample_hold", 240},
			{"sample_hold", "predictor", 240},
			{"predictor", "motion_comp", 660},
			{"chroma_resampler", "predictor", 660},
			{"yuv_gen", "chroma_resampler", 2100},
			{"idct", "predictor", 30},
			// Stream assembly and OFDM transmit chain.
			{"entropy_enc", "stream_mux", 640},
			{"stream_mux", "psts_mux", 2000},
			{"psts_mux", "sram", 600},
			{"sram", "fft", 640},
			{"sram", "ifft", 620},
			{"ifft", "ofdm", 90},
			{"fft", "psts_mux", 90},
			{"sram", "ofdm", 30},
			// Audio encoder chain.
			{"audio_in", "filter_bank", 90},
			{"filter_bank", "mdct", 30},
			{"mdct", "quantizer_a", 20},
			{"quantizer_a", "huffman", 20},
			{"huffman", "psts_mux", 90},
		},
	}
}

// Apps returns both paper applications.
func Apps() []App { return []App{H264(), VCE()} }

// Validate checks structural consistency: unique block names, unique tile
// positions inside the mesh, edges referencing existing distinct blocks
// with positive weights, and a weakly connected graph.
func (a App) Validate() error {
	var errs []error
	byName := make(map[string]Block, len(a.Blocks))
	byTile := make(map[[2]int]string, len(a.Blocks))
	if len(a.Blocks) > a.Width*a.Height {
		errs = append(errs, fmt.Errorf("%d blocks exceed %dx%d mesh", len(a.Blocks), a.Width, a.Height))
	}
	for _, b := range a.Blocks {
		if _, dup := byName[b.Name]; dup {
			errs = append(errs, fmt.Errorf("duplicate block %q", b.Name))
		}
		byName[b.Name] = b
		if b.X < 0 || b.X >= a.Width || b.Y < 0 || b.Y >= a.Height {
			errs = append(errs, fmt.Errorf("block %q at (%d,%d) outside %dx%d mesh", b.Name, b.X, b.Y, a.Width, a.Height))
		}
		if prev, dup := byTile[[2]int{b.X, b.Y}]; dup {
			errs = append(errs, fmt.Errorf("blocks %q and %q share tile (%d,%d)", prev, b.Name, b.X, b.Y))
		}
		byTile[[2]int{b.X, b.Y}] = b.Name
	}
	adj := make(map[string][]string)
	for _, e := range a.Edges {
		if _, ok := byName[e.From]; !ok {
			errs = append(errs, fmt.Errorf("edge from unknown block %q", e.From))
			continue
		}
		if _, ok := byName[e.To]; !ok {
			errs = append(errs, fmt.Errorf("edge to unknown block %q", e.To))
			continue
		}
		if e.From == e.To {
			errs = append(errs, fmt.Errorf("self edge at %q", e.From))
		}
		if e.PacketsPerFrame <= 0 {
			errs = append(errs, fmt.Errorf("edge %s->%s has non-positive weight", e.From, e.To))
		}
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	if len(a.Blocks) > 0 && len(errs) == 0 {
		seen := map[string]bool{a.Blocks[0].Name: true}
		stack := []string{a.Blocks[0].Name}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		if len(seen) != len(a.Blocks) {
			errs = append(errs, fmt.Errorf("graph not connected: reached %d of %d blocks", len(seen), len(a.Blocks)))
		}
	}
	return errors.Join(errs...)
}

// Node returns the mesh node id of a named block.
func (a App) Node(name string) (noc.NodeID, error) {
	for _, b := range a.Blocks {
		if b.Name == name {
			return noc.NodeID(b.Y*a.Width + b.X), nil
		}
	}
	return 0, fmt.Errorf("apps: unknown block %q", name)
}

// Matrix returns the packets-per-frame traffic matrix on mesh node ids.
func (a App) Matrix() ([][]float64, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("apps: invalid %s graph: %w", a.Name, err)
	}
	n := a.Width * a.Height
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for _, e := range a.Edges {
		from, err := a.Node(e.From)
		if err != nil {
			return nil, err
		}
		to, err := a.Node(e.To)
		if err != nil {
			return nil, err
		}
		m[from][to] += e.PacketsPerFrame
	}
	return m, nil
}

// TotalPacketsPerFrame sums all edge demands.
func (a App) TotalPacketsPerFrame() float64 {
	total := 0.0
	for _, e := range a.Edges {
		total += e.PacketsPerFrame
	}
	return total
}

// DefaultPeakRate is the busiest node's injection rate (flits per node per
// node cycle) at application speed 1.0. The paper normalizes speed to 75
// frames/s without stating absolute link utilizations; this default puts
// the busiest node at a moderate-to-high load where the No-DVFS delay has
// risen visibly above zero-load but the network is not saturated, matching
// the qualitative shape of Fig. 10. See EXPERIMENTS.md.
const DefaultPeakRate = 0.40

// Injector builds the traffic injector for the application at the given
// relative speed (1.0 ≡ 75 frames/s in the paper's normalization). The
// busiest source injects speed·peak flits per node cycle; all other
// sources scale proportionally to their row sums. cfg must match the
// application's mesh.
func (a App) Injector(cfg noc.Config, speed, peak float64, seed int64) (*traffic.Injector, error) {
	m, rates, err := a.demand(cfg, speed, peak)
	if err != nil {
		return nil, err
	}
	pattern, err := traffic.NewMatrixPattern(a.Name, cfg, m)
	if err != nil {
		return nil, err
	}
	return traffic.NewInjectorRates(cfg, pattern, rates, seed)
}

// Rates returns the per-node injection rates (flits per node per node
// cycle) of Injector(cfg, speed, peak, ·), without building it.
func (a App) Rates(cfg noc.Config, speed, peak float64) ([]float64, error) {
	_, rates, err := a.demand(cfg, speed, peak)
	return rates, err
}

// demand checks the arguments and returns the application's traffic
// matrix with the per-node rates at the given speed.
func (a App) demand(cfg noc.Config, speed, peak float64) (m [][]float64, rates []float64, err error) {
	if cfg.Width != a.Width || cfg.Height != a.Height {
		return nil, nil, fmt.Errorf("apps: %s needs a %dx%d mesh, config is %dx%d",
			a.Name, a.Width, a.Height, cfg.Width, cfg.Height)
	}
	if speed < 0 || peak <= 0 {
		return nil, nil, fmt.Errorf("apps: bad speed %g / peak %g", speed, peak)
	}
	if m, err = a.Matrix(); err != nil {
		return nil, nil, err
	}
	if rates, err = traffic.RowRates(m); err != nil {
		return nil, nil, err
	}
	for i := range rates {
		rates[i] *= speed * peak
	}
	return m, rates, nil
}
