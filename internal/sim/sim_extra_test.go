package sim

import (
	"math"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/trace"
)

func TestPacketLogCollectsMeasuredPackets(t *testing.T) {
	plog := trace.NewLog(1 << 16)
	p := testParams(t, 0.15, dvfs.NewNoDVFS(1e9))
	p.PacketLog = plog
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if int64(plog.Len()) != res.Packets {
		t.Errorf("log has %d records, result reports %d packets", plog.Len(), res.Packets)
	}
	// Flow aggregation must cover every record, and the log-derived mean
	// delay must match the engine's.
	var pkts int64
	var sum float64
	for _, f := range plog.Flows() {
		pkts += f.Packets
		sum += f.MeanDelayNs * float64(f.Packets)
	}
	if pkts != int64(plog.Len()) {
		t.Errorf("flows cover %d packets of %d", pkts, plog.Len())
	}
	if mean := sum / float64(pkts); math.Abs(mean-res.AvgDelayNs) > 0.5 {
		t.Errorf("log mean delay %.2f vs result %.2f", mean, res.AvgDelayNs)
	}
}

func TestPowerBreakdownSumsToTotal(t *testing.T) {
	res, err := Run(testParams(t, 0.2, dvfs.NewNoDVFS(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	sum := res.SwitchingMW + res.ClockMW + res.LeakageMW
	if math.Abs(sum-res.AvgPowerMW) > res.AvgPowerMW*0.01 {
		t.Errorf("breakdown %.2f+%.2f+%.2f = %.2f != total %.2f",
			res.SwitchingMW, res.ClockMW, res.LeakageMW, sum, res.AvgPowerMW)
	}
	if res.SwitchingMW <= 0 || res.ClockMW <= 0 || res.LeakageMW <= 0 {
		t.Error("breakdown has non-positive component")
	}
}

func TestBreakdownShiftsUnderDVFS(t *testing.T) {
	// At low frequency and voltage the switching component (same flits,
	// lower V²) shrinks less than the clock component (V²F): the clock
	// share of total power must fall under RMSD relative to No-DVFS.
	base, err := Run(testParams(t, 0.2, dvfs.NewNoDVFS(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	rmsd, err := Run(testParams(t, 0.2, newRMSD(t)))
	if err != nil {
		t.Fatal(err)
	}
	baseClockShare := base.ClockMW / base.AvgPowerMW
	rmsdClockShare := rmsd.ClockMW / rmsd.AvgPowerMW
	if rmsdClockShare >= baseClockShare {
		t.Errorf("clock share did not fall under RMSD: %.3f vs %.3f",
			rmsdClockShare, baseClockShare)
	}
}

func TestLatencyCyclesConstantUnderRMSDInScalingRange(t *testing.T) {
	// Fig. 2a: within [λmin, λmax] the RMSD latency in *cycles* is
	// roughly constant because the network always runs at λmax.
	lat := func(rate float64) float64 {
		res, err := Run(testParams(t, rate, newRMSD(t)))
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatencyCycles
	}
	l1 := lat(0.20)
	l2 := lat(0.30)
	if math.Abs(l1-l2)/l1 > 0.35 {
		t.Errorf("RMSD latency not ~constant in scaling range: %.1f vs %.1f cycles", l1, l2)
	}
}

func TestElapsedTimeConsistentWithFrequency(t *testing.T) {
	// A No-DVFS run at 1 GHz must report measurement wall time equal to
	// the measured node cycles (1 ns per cycle).
	p := testParams(t, 0.1, dvfs.NewNoDVFS(1e9))
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	wantNs := float64(p.Measure) // 1 ns per node cycle at 1 GHz
	if math.Abs(res.ElapsedNs-wantNs)/wantNs > 0.01 {
		t.Errorf("elapsed %.0f ns, want ~%.0f", res.ElapsedNs, wantNs)
	}
	// An RMSD run pinned at FMin spans the same wall time (the window is
	// defined in node cycles) but executes ~3x fewer network cycles.
	pr := testParams(t, 0.05, newRMSD(t))
	resR, err := Run(pr)
	if err != nil {
		t.Fatal(err)
	}
	totalNode := float64(pr.Warmup + pr.Measure)
	if float64(resR.NetCycles) > totalNode*0.55 {
		t.Errorf("FMin-pinned run executed %d network cycles for %v node cycles, want ~1/3",
			resR.NetCycles, totalNode)
	}
}

func TestNodeCycleAccountingAcrossFrequencies(t *testing.T) {
	// Throughput is measured per node cycle; at any fixed frequency the
	// accepted rate must match the offered rate below saturation — this
	// exercises the fractional node-cycle accumulator at a non-integer
	// Fnode/Fnoc ratio.
	pol := dvfs.NewNoDVFS(700e6) // Fnode/Fnoc = 1.428...
	p := testParams(t, 0.1, pol)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-0.1) > 0.012 {
		t.Errorf("accepted %.4f flits/node/node-cycle, want 0.1", res.Throughput)
	}
	// Delay in ns must reflect the slower clock: latency_cycles / 0.7 GHz.
	wantDelay := res.AvgLatencyCycles / 0.7
	if math.Abs(res.AvgDelayNs-wantDelay)/wantDelay > 0.05 {
		t.Errorf("delay %.1f ns, want latency/0.7 = %.1f", res.AvgDelayNs, wantDelay)
	}
}
