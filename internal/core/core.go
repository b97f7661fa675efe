// Package core is a thin adapter over package nocsim that exists only for
// the benchmark module's per-layer probes (bench/probes.go), which compile
// against these four names. Nothing in the root module imports it; the
// recipe lives in nocsim. It goes when the probes become package
// benchmarks beside the code they time (ROADMAP item 7).
package core

import (
	"context"

	"repro/internal/noc"
	"repro/nocsim"
)

// Scenario is the slice of nocsim.Scenario the probes set.
type Scenario struct {
	Noc     noc.Config
	Pattern string
	Seed    int64
	Quick   bool
	Workers int
}

// RMSD is the rate-based policy.
const RMSD = nocsim.RMSD

func (s Scenario) scenario() nocsim.Scenario {
	m := nocsim.Mesh{Width: s.Noc.Width, Height: s.Noc.Height, VCs: s.Noc.VCs,
		BufDepth: s.Noc.BufDepth, PacketSize: s.Noc.PacketSize, Routing: nocsim.Routing(s.Noc.Routing.String())}
	return nocsim.Scenario{Mesh: m, Pattern: s.Pattern, Seed: s.Seed, Quick: s.Quick, Workers: s.Workers}
}

// Calibrate is nocsim.Calibrate.
func Calibrate(ctx context.Context, s Scenario) (nocsim.Calibration, error) {
	return nocsim.Calibrate(ctx, s.scenario())
}

// RunOne is nocsim.Run at one (policy, load) point on cal.
func RunOne(ctx context.Context, s Scenario, kind nocsim.PolicyKind, load float64, cal nocsim.Calibration) (nocsim.Result, error) {
	n := s.scenario()
	n.Policy, n.Load, n.Calibration = kind, load, &cal
	return nocsim.Run(ctx, n)
}
