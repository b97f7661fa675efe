package sim

import (
	"testing"

	"repro/internal/dvfs"
	"repro/internal/noc"
	"repro/internal/traffic"
	"repro/internal/volt"
)

// benchRun measures a complete (small) engine run: network construction,
// warmup, measurement, result extraction. It is the end-to-end cost of one
// sweep point, scaled down ~10x from production windows.
func benchRun(b *testing.B, rate float64, policy func() dvfs.Policy) {
	cfg := noc.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj, err := traffic.NewInjector(cfg, traffic.NewUniform(cfg), rate, 1234)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Run(Params{
			Noc:      cfg,
			Injector: inj,
			Policy:   policy(),
			VF:       volt.New(),
			Warmup:   2000,
			Measure:  6000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Packets == 0 {
			b.Fatal("no packets measured")
		}
	}
}

func BenchmarkEngineRunNoDVFS(b *testing.B) {
	benchRun(b, 0.1, func() dvfs.Policy { return dvfs.NewNoDVFS(1e9) })
}

func BenchmarkEngineRunRMSD(b *testing.B) {
	benchRun(b, 0.1, func() dvfs.Policy {
		p, err := dvfs.NewRMSD(1e9, 0.378, dvfs.Range{FMin: volt.FMin, FMax: volt.FMax})
		if err != nil {
			b.Fatal(err)
		}
		return p
	})
}

// BenchmarkEngineRunLowLoad is dominated by quiescent and near-quiescent
// cycles, so it tracks the skip-ahead and active-list win at fleet-typical
// low sweep points.
func BenchmarkEngineRunLowLoad(b *testing.B) {
	benchRun(b, 0.01, func() dvfs.Policy { return dvfs.NewNoDVFS(1e9) })
}
