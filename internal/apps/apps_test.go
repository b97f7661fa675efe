package apps

import (
	"math"
	"testing"

	"repro/internal/noc"
)

func TestH264Valid(t *testing.T) {
	a := H264()
	if err := a.Validate(); err != nil {
		t.Fatalf("H.264 graph invalid: %v", err)
	}
	if a.Width != 4 || a.Height != 4 {
		t.Errorf("H.264 mesh = %dx%d, want 4x4 (Fig. 9a)", a.Width, a.Height)
	}
	if len(a.Blocks) != 15 {
		t.Errorf("H.264 has %d blocks, want 15", len(a.Blocks))
	}
	if len(a.Edges) != 19 {
		t.Errorf("H.264 has %d edges, want 19", len(a.Edges))
	}
}

func TestVCEValid(t *testing.T) {
	a := VCE()
	if err := a.Validate(); err != nil {
		t.Fatalf("VCE graph invalid: %v", err)
	}
	if a.Width != 5 || a.Height != 5 {
		t.Errorf("VCE mesh = %dx%d, want 5x5 (Fig. 9b)", a.Width, a.Height)
	}
	if len(a.Blocks) != 25 {
		t.Errorf("VCE has %d blocks, want 25 (fully used mesh)", len(a.Blocks))
	}
	if len(a.Edges) != 31 {
		t.Errorf("VCE has %d edges, want 31", len(a.Edges))
	}
}

func TestH264WeightMultisetFromFigure(t *testing.T) {
	// The edge weights must be exactly the multiset printed in Fig. 9(a).
	want := map[float64]int{
		420: 2, 840: 1, 280: 3, 560: 1, 140: 1, 210: 1, 66: 2, 3: 2,
		228: 2, 24: 2, 60: 1, 221: 1,
	}
	got := map[float64]int{}
	for _, e := range H264().Edges {
		got[e.PacketsPerFrame]++
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("weight %g appears %d times, want %d", w, got[w], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("weight alphabet size %d, want %d", len(got), len(want))
	}
}

func TestVCEWeightMultisetFromFigure(t *testing.T) {
	want := map[float64]int{
		4200: 3, 8400: 1, 2800: 3, 5600: 1, 1400: 1, 30: 3, 2280: 2,
		2210: 1, 240: 2, 660: 2, 2100: 1, 640: 2, 2000: 1, 600: 1,
		620: 1, 90: 4, 20: 2,
	}
	got := map[float64]int{}
	for _, e := range VCE().Edges {
		got[e.PacketsPerFrame]++
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("weight %g appears %d times, want %d", w, got[w], n)
		}
	}
}

func TestAppsList(t *testing.T) {
	list := Apps()
	if len(list) != 2 || list[0].Name != "h264" || list[1].Name != "vce" {
		t.Errorf("Apps() = %v", list)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	base := H264()
	tests := []struct {
		name   string
		mutate func(*App)
	}{
		{"duplicate block", func(a *App) { a.Blocks = append(a.Blocks, Block{"video_in", 3, 3}) }},
		{"shared tile", func(a *App) { a.Blocks = append(a.Blocks, Block{"extra", 0, 0}) }},
		{"off mesh", func(a *App) { a.Blocks[0].X = 7 }},
		{"unknown edge source", func(a *App) { a.Edges[0].From = "nope" }},
		{"unknown edge target", func(a *App) { a.Edges[0].To = "nope" }},
		{"self edge", func(a *App) { a.Edges[0].To = a.Edges[0].From }},
		{"zero weight", func(a *App) { a.Edges[0].PacketsPerFrame = 0 }},
		{"disconnected", func(a *App) {
			a.Edges = a.Edges[:1] // only video_in -> yuv_gen remains
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			a := base
			a.Blocks = append([]Block(nil), base.Blocks...)
			a.Edges = append([]Edge(nil), base.Edges...)
			tc.mutate(&a)
			if err := a.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestNodeLookup(t *testing.T) {
	a := H264()
	id, err := a.Node("quant")
	if err != nil {
		t.Fatal(err)
	}
	// quant is at (3,1) on a 4-wide mesh: id 7.
	if id != 7 {
		t.Errorf("Node(quant) = %d, want 7", id)
	}
	if _, err := a.Node("bogus"); err == nil {
		t.Error("Node accepted unknown block")
	}
}

func TestMatrixTotals(t *testing.T) {
	for _, a := range Apps() {
		m, err := a.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for s := range m {
			for d, w := range m[s] {
				if w > 0 && s == d {
					t.Errorf("%s: self traffic at %d", a.Name, s)
				}
				total += w
			}
		}
		if math.Abs(total-a.TotalPacketsPerFrame()) > 1e-9 {
			t.Errorf("%s: matrix total %g != edge total %g", a.Name, total, a.TotalPacketsPerFrame())
		}
	}
}

func TestInjectorScalesWithSpeed(t *testing.T) {
	a := H264()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	full, err := a.Injector(cfg, 1.0, DefaultPeakRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := a.Injector(cfg, 0.5, DefaultPeakRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half.MeanRate()-full.MeanRate()/2) > 1e-12 {
		t.Errorf("speed 0.5 mean rate %g, want half of %g", half.MeanRate(), full.MeanRate())
	}
}

func TestInjectorRejectsWrongMesh(t *testing.T) {
	a := H264()
	cfg := noc.DefaultConfig() // 5x5, but H.264 needs 4x4
	if _, err := a.Injector(cfg, 1, DefaultPeakRate, 1); err == nil {
		t.Error("accepted wrong mesh size")
	}
}

func TestInjectorRejectsBadSpeed(t *testing.T) {
	a := H264()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	if _, err := a.Injector(cfg, -1, DefaultPeakRate, 1); err == nil {
		t.Error("accepted negative speed")
	}
	if _, err := a.Injector(cfg, 1, 0, 1); err == nil {
		t.Error("accepted zero peak")
	}
}

func TestBusiestNodeGetsPeakRate(t *testing.T) {
	// At speed 1 the maximum per-node rate must equal the peak parameter.
	a := VCE()
	cfg := noc.DefaultConfig()
	m, err := a.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	// Find busiest row.
	maxRow, busiest := 0.0, -1
	for s := range m {
		sum := 0.0
		for _, w := range m[s] {
			sum += w
		}
		if sum > maxRow {
			maxRow, busiest = sum, s
		}
	}
	// yuv_gen sends 8400+5600+2100 = 16100 packets/frame — the most.
	yuv, err := a.Node("yuv_gen")
	if err != nil {
		t.Fatal(err)
	}
	if noc.NodeID(busiest) != yuv {
		t.Errorf("busiest node %d, want yuv_gen (%d)", busiest, yuv)
	}
	inj, err := a.Injector(cfg, 1.0, 0.35, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = inj
	if maxRow != 16100 {
		t.Errorf("yuv_gen row sum = %g, want 16100", maxRow)
	}
}

func TestTheoreticalCapacityOfAppMatrices(t *testing.T) {
	// Both app matrices must admit a positive theoretical capacity on
	// their meshes under XY routing.
	for _, a := range Apps() {
		m, err := a.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		// Normalize rows for the capacity computation.
		norm := make([][]float64, len(m))
		for s := range m {
			norm[s] = make([]float64, len(m[s]))
			sum := 0.0
			for _, w := range m[s] {
				sum += w
			}
			if sum == 0 {
				continue
			}
			for d, w := range m[s] {
				norm[s][d] = w / sum
			}
		}
		cfg := noc.Config{Width: a.Width, Height: a.Height, Routing: noc.RoutingXY}
		cap, err := noc.TheoreticalCapacity(cfg, nil, nil, norm)
		if err != nil {
			t.Fatal(err)
		}
		if cap <= 0 {
			t.Errorf("%s: non-positive capacity", a.Name)
		}
	}
}
