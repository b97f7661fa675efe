package sim

import (
	"reflect"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/traffic"
	"repro/internal/volt"
)

// freeSpare lends a second core whenever asked and never wants it back.
type freeSpare struct{}

func (freeSpare) TryBorrow() bool { return true }
func (freeSpare) Wanted() bool    { return false }
func (freeSpare) Return()         {}

// TestSpareChangesNoResult: a saturated 8x8 run reports the same Result,
// bit for bit, whether it is offered a second core or not — and the
// offered run did step its heavy cycles split.
func TestSpareChangesNoResult(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 8, 8
	pm := power.Default28nm()
	run := func(spare noc.Spare) Result {
		// 0.3 flits/node/cycle: 0.85 of the 8x8's uniform saturation.
		inj, err := traffic.NewInjector(cfg, traffic.NewUniform(cfg), 0.3, 99)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Params{
			Noc: cfg, Injector: inj, Policy: dvfs.NewNoDVFS(1e9), VF: volt.New(), Power: &pm,
			Warmup: 3000, Measure: 12000, TraceFreq: true, Spare: spare,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(nil)
	runs0, cycles0 := SpareStats()
	got := run(freeSpare{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("offered a spare core the run reports\n%+v\nwithout one\n%+v", got, want)
	}
	if runs, cycles := SpareStats(); runs != runs0+1 || cycles == cycles0 {
		t.Fatalf("SpareStats moved from (%d, %d) to (%d, %d): the run did not step split", runs0, cycles0, runs, cycles)
	}
}
