// Sensitivity mini-study (the paper's Fig. 8): vary one router parameter
// at a time — virtual channels, buffers per VC, packet size, mesh size —
// and verify that the DMSD-over-RMSD trade-off conclusion survives every
// variation: RMSD always saves more power, DMSD always has (much) lower
// delay. Each variant is the baseline scenario of the public nocsim API
// with one mesh field changed; the fields left zero keep the paper's
// values.
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

	type variant struct {
		label string
		mesh  nocsim.Mesh
	}
	variants := []variant{
		{"baseline (8 VC, 4 buf, 20 flits, 5x5)", nocsim.Mesh{VCs: 8}},
		{"2 VCs", nocsim.Mesh{VCs: 2}},
		{"4 VCs", nocsim.Mesh{VCs: 4}},
		{"8 buffers/VC", nocsim.Mesh{BufDepth: 8}},
		{"10-flit packets", nocsim.Mesh{PacketSize: 10}},
		{"4x4 mesh", nocsim.Mesh{Width: 4, Height: 4}},
	}

	fmt.Println("variant                                  sat    RMSD-vs-DMSD: power  delay")
	ok := true
	for _, v := range variants {
		s := nocsim.Scenario{Mesh: v.mesh, Pattern: "uniform", Quick: true}
		cal, err := nocsim.Calibrate(ctx, s)
		if err != nil {
			log.Fatal(err)
		}
		s.Calibration = &cal
		results, err := nocsim.Sweep(ctx, nocsim.Grid{
			Base:     s,
			Loads:    []float64{0.5 * cal.SaturationRate},
			Policies: []nocsim.PolicyKind{nocsim.RMSD, nocsim.DMSD},
		})
		if err != nil {
			log.Fatal(err)
		}
		r, d := results[0], results[1]
		powAdv := d.AvgPowerMW / r.AvgPowerMW
		delayPen := r.AvgDelayNs / d.AvgDelayNs
		fmt.Printf("%-40s %.3f  %17.2fx  %5.2fx\n", v.label, cal.SaturationRate, powAdv, delayPen)
		if powAdv < 1 || delayPen < 1 {
			ok = false
		}
	}
	if ok {
		fmt.Println("\nIn every variant DMSD pays a modest power premium (>1x) and buys a")
		fmt.Println("multiple of delay reduction — the paper's sensitivity conclusion.")
	} else {
		fmt.Println("\nWARNING: at least one variant broke the expected ordering.")
	}
}
