// Anomaly: reproduce the paper's headline observation (Sec. III, Fig. 2b)
// two independent ways and plot both in the terminal:
//
//  1. Cycle-accurate simulation (through the public nocsim API): RMSD
//     delay in nanoseconds vs injection rate on the baseline 5x5 NoC —
//     non-monotonic with a peak at λmin.
//  2. The single-server M/M/1 model of the paper's reference [12]
//     (internal/queueing), which predicts the same shape analytically.
//
// The anomaly: latency in *cycles* is flat under RMSD, but the clock
// slows proportionally to the load, so delay in *seconds* explodes at low
// load and then falls as 1/rate — the opposite of every fixed-frequency
// latency curve.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/queueing"
	"repro/internal/sweep"
	"repro/nocsim"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// --- analytic model -------------------------------------------------
	qm := queueing.New()
	const rho = 0.9
	law := func(l float64) float64 { return qm.FreqRMSD(l, rho) }
	pts := qm.Sweep(law, rho*0.98, 48)
	ax := make([]float64, len(pts))
	ay := make([]float64, len(pts))
	for i, p := range pts {
		ax[i] = p.Lambda / qm.MaxArrivalRate()
		ay[i] = p.DelayS * 1e9
	}
	fmt.Println(sweep.AsciiPlot(
		"M/M/1 analogue: RMSD sojourn time (ns) vs normalized arrival rate",
		56, 12, sweep.Series{Name: "analytic rmsd", Marker: '*', X: ax, Y: ay}))
	fmt.Printf("analytic peak at λmin = %.3f of capacity; peak/No-DVFS ratio %.1fx\n\n",
		qm.LambdaMin(rho)/qm.MaxArrivalRate(), qm.RMSDPeakRatio(rho))

	// --- cycle-accurate simulation --------------------------------------
	s := nocsim.Scenario{Pattern: "uniform", Quick: true}
	cal, err := nocsim.Calibrate(ctx, s)
	if err != nil {
		log.Fatal(err)
	}
	var loads []float64
	for i := 1; i <= 8; i++ {
		loads = append(loads, 0.9*cal.SaturationRate*float64(i)/8)
	}
	s.Calibration = &cal
	results, err := nocsim.Sweep(ctx, nocsim.Grid{
		Base:     s,
		Loads:    loads,
		Policies: []nocsim.PolicyKind{nocsim.NoDVFS, nocsim.RMSD},
	})
	if err != nil {
		log.Fatal(err)
	}
	var sx, sGHzDelay, sBaseDelay []float64
	for i, load := range loads {
		sx = append(sx, load)
		sBaseDelay = append(sBaseDelay, results[i].AvgDelayNs)          // No-DVFS block
		sGHzDelay = append(sGHzDelay, results[len(loads)+i].AvgDelayNs) // RMSD block
	}
	fmt.Println(sweep.AsciiPlot(
		"Simulated 5x5 NoC: packet delay (ns) vs injection rate",
		56, 12,
		sweep.Series{Name: "rmsd", Marker: '*', X: sx, Y: sGHzDelay},
		sweep.Series{Name: "nodvfs", Marker: 'o', X: sx, Y: sBaseDelay}))
	fmt.Printf("simulated λmin = %.3f (λmax %.3f x FMin/FMax); both curves peak there\n",
		cal.LambdaMax/3, cal.LambdaMax)
	fmt.Println("\nThe queueing model and the cycle-accurate NoC agree on the shape:")
	fmt.Println("rate-based DVFS turns the familiar monotone latency curve into a")
	fmt.Println("non-monotonic delay curve with its worst case at light load.")
}
