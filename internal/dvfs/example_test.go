package dvfs_test

import (
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/volt"
)

// ExampleRMSD shows the open-loop frequency law of the paper's Eq. (2):
// the controller scales the clock linearly with the measured injection
// rate, clipping at the range limits.
func ExampleRMSD() {
	rmsd, err := dvfs.NewRMSD(1e9, 0.378, dvfs.Range{FMin: volt.FMin, FMax: volt.FMax})
	if err != nil {
		panic(err)
	}
	for _, rate := range []float64{0.05, 0.2, 0.378, 0.5} {
		// One control window of 10 000 cycles on a 25-node mesh.
		m := dvfs.Measurement{NodeCycles: 10000, Nodes: 25, OfferedFlits: int64(rate * 10000 * 25)}
		fmt.Printf("λnode=%.3f -> %.0f MHz\n", rate, rmsd.Next(m)/1e6)
	}
	// Output:
	// λnode=0.050 -> 333 MHz
	// λnode=0.200 -> 529 MHz
	// λnode=0.378 -> 1000 MHz
	// λnode=0.500 -> 1000 MHz
}

// ExampleDMSD drives the closed-loop controller against a toy plant whose
// delay falls as the clock rises; the loop settles with the delay at the
// 150 ns target.
func ExampleDMSD() {
	dmsd, err := dvfs.NewDMSD(150, dvfs.Range{FMin: volt.FMin, FMax: volt.FMax}, dvfs.DefaultKI, dvfs.DefaultKP)
	if err != nil {
		panic(err)
	}
	plant := func(f float64) float64 { return 80 / (f / 1e9) } // ns
	f := dmsd.Freq()
	for i := 0; i < 3000; i++ {
		f = dmsd.Next(dvfs.Measurement{AvgDelayNs: plant(f), DelaySamples: 100})
	}
	fmt.Printf("settled: %.0f MHz, delay %.0f ns\n", f/1e6, plant(f))
	// Output:
	// settled: 533 MHz, delay 150 ns
}
