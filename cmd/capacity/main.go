// Command capacity reports, for a network configuration and traffic
// pattern, the theoretical channel-load capacity and the empirically
// measured saturation rate, plus the RMSD calibration derived from them.
// It is a thin flag translation over the public nocsim package.
//
//	capacity -pattern uniform
//	capacity -pattern tornado -width 8 -height 8 -quick
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cli"
	"repro/nocsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("capacity: ")

	var (
		width   = flag.Int("width", 5, "mesh width")
		height  = flag.Int("height", 5, "mesh height")
		vcs     = flag.Int("vcs", 8, "virtual channels per port")
		bufs    = flag.Int("buffers", 4, "flit buffers per VC")
		pkt     = flag.Int("packet", 20, "packet size in flits")
		routing = flag.String("routing", "xy", "routing algorithm")
		pattern = flag.String("pattern", "uniform", "traffic pattern")
		seed    = flag.Int64("seed", 1, "random seed")
		quick   = flag.Bool("quick", false, "shorter simulations")
		workers = cli.WorkersFlag(flag.CommandLine, "concurrent saturation probes (default GOMAXPROCS, 1 = serial); the measured rate is identical either way")
	)
	flag.Parse()

	if err := cli.CheckWorkers(*workers); err != nil {
		log.Fatal(err)
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	// A zero field means "the default" to Normalized, so a zero typed on
	// the command line would be silently replaced; refuse it.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "width", "height", "vcs", "buffers", "packet", "seed":
			if f.Value.String() == "0" {
				log.Fatalf("-%s must be non-zero", f.Name)
			}
		}
	})
	s := nocsim.Scenario{
		Mesh: nocsim.Mesh{
			Width: *width, Height: *height, VCs: *vcs, BufDepth: *bufs,
			PacketSize: *pkt, Routing: nocsim.Routing(*routing),
		},
		Pattern: *pattern,
		Seed:    *seed,
		Quick:   *quick,
		Workers: *workers,
	}.Normalized()

	theo, err := nocsim.TheoreticalCapacity(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("configuration:         %dx%d mesh, %d VCs, %d buf/VC, %d-flit packets, %s routing\n",
		s.Mesh.Width, s.Mesh.Height, s.Mesh.VCs, s.Mesh.BufDepth, s.Mesh.PacketSize, s.Mesh.Routing)
	fmt.Printf("pattern:               %s\n", s.Pattern)
	fmt.Printf("theoretical capacity:  %.4f flits/node/cycle (1 / max channel load)\n", theo)

	cal, err := nocsim.Calibrate(ctx, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured saturation:   %.4f flits/node/cycle\n", cal.SaturationRate)
	fmt.Printf("allocator efficiency:  %.0f%% of theoretical\n", 100*cal.SaturationRate/theo)
	fmt.Printf("RMSD lambda-max:       %.4f (90%% of saturation)\n", cal.LambdaMax)
	fmt.Printf("DMSD target delay:     %.1f ns (delay at lambda-max, full speed)\n", cal.TargetDelayNs)
}
