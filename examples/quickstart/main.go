// Quickstart: simulate the paper's baseline NoC (5x5 mesh, 8 VCs, 20-flit
// packets, uniform traffic at 0.2 flits/node/cycle) under the three DVFS
// policies and print the power-delay trade-off that is the paper's core
// result: RMSD saves the most power but pays for it with a large delay;
// DMSD holds the delay at its target for a modest extra power cost.
//
// The whole example uses only the public nocsim API: write a Scenario as
// a struct literal, Calibrate once, Sweep the three policies.
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

	scenario := nocsim.Scenario{
		Pattern: "uniform", // the paper's baseline traffic
		Load:    0.2,       // flits per node per node cycle
		Quick:   true,      // short windows so the example runs in seconds
	}

	// Calibrate once: find the saturation rate, set the RMSD target rate
	// 10% below it, and set the DMSD delay target to the near-saturation
	// delay (exactly the paper's recipe).
	cal, err := nocsim.Calibrate(ctx, scenario)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saturation %.3f flits/node/cycle -> λmax %.3f, DMSD target %.0f ns\n\n",
		cal.SaturationRate, cal.LambdaMax, cal.TargetDelayNs)

	fmt.Printf("uniform traffic at %.2f flits/node/cycle:\n\n", scenario.Load)
	fmt.Printf("%-8s  %12s  %12s  %10s\n", "policy", "delay (ns)", "power (mW)", "freq (MHz)")
	scenario.Calibration = &cal
	results, err := nocsim.Sweep(ctx, nocsim.Grid{
		Base:     scenario,
		Policies: nocsim.AllPolicies(),
	})
	if err != nil {
		log.Fatal(err)
	}
	base := results[0] // No-DVFS comes first in AllPolicies order
	for _, res := range results {
		fmt.Printf("%-8s  %12.1f  %12.1f  %10.0f\n",
			res.Scenario.Policy, res.AvgDelayNs, res.AvgPowerMW, res.AvgFreqHz/1e6)
		if res.Scenario.Policy == nocsim.RMSD {
			fmt.Printf("%-8s  (%.1fx the No-DVFS delay, %.0f%% power saving)\n", "",
				res.AvgDelayNs/base.AvgDelayNs,
				100*(1-res.AvgPowerMW/base.AvgPowerMW))
		}
	}
	fmt.Println("\nThe trade-off the paper reports: RMSD minimizes power but inflates")
	fmt.Println("delay severely; DMSD gives back 20-50% of the saving to keep the")
	fmt.Println("delay pinned at the target.")
}
