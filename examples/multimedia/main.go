// Multimedia workloads (the paper's Sec. VI / Fig. 10): drive the H.264
// encoder (4x4 mesh) and the Video Conference Encoder (5x5 mesh)
// communication graphs at increasing application speed and watch the
// power-delay trade-off of the three DVFS policies on realistic traffic.
// The workloads are selected by name through the public nocsim API.
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

	for _, app := range nocsim.Apps() {
		// The mesh is left zero: it defaults to the app's mapping.
		s := nocsim.Scenario{App: app.Name, Quick: true}
		cal, err := nocsim.Calibrate(ctx, s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s on a %dx%d mesh (%d blocks, %d edges, %.0f packets/frame)\n",
			app.Name, app.Width, app.Height, app.Blocks, app.Edges, app.PacketsPerFrame)

		speeds := []float64{0.25, 0.5, 0.75, 1.0} // 1.0 ≡ 75 frames/s
		s.Calibration = &cal
		results, err := nocsim.Sweep(ctx, nocsim.Grid{
			Base:     s,
			Loads:    speeds,
			Policies: nocsim.AllPolicies(),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("speed    No-DVFS          RMSD             DMSD")
		fmt.Println("         mW     ns        mW     ns        mW     ns")
		for i, sp := range speeds {
			// Sweep orders points policy-major: No-DVFS block, then RMSD,
			// then DMSD, each over the speed grid.
			n := results[i]
			r := results[len(speeds)+i]
			d := results[2*len(speeds)+i]
			fmt.Printf("%.2f   %6.1f %6.0f   %6.1f %6.0f   %6.1f %6.0f\n",
				sp,
				n.AvgPowerMW, n.AvgDelayNs,
				r.AvgPowerMW, r.AvgDelayNs,
				d.AvgPowerMW, d.AvgDelayNs)
		}
		fmt.Println()
	}
	fmt.Println("Even on realistic application traffic, RMSD's additional power")
	fmt.Println("saving costs a large delay increase that would directly inflate")
	fmt.Println("the encoders' application latency (the paper's Sec. VI argument).")
}
