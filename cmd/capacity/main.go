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

	mesh := cli.NewMeshFlags(flag.CommandLine)
	pattern := flag.String("pattern", "uniform", "traffic pattern")
	workers := cli.WorkersFlag(flag.CommandLine, "concurrent saturation probes (default GOMAXPROCS, 1 = serial); the measured rate is identical either way")
	flag.Parse()

	if err := cli.CheckWorkers(*workers); err != nil {
		log.Fatal(err)
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	s, err := mesh.Scenario(false)
	if err != nil {
		log.Fatal(err)
	}
	s.Pattern, s.Workers = *pattern, *workers
	s = s.Normalized()

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
