package nocsim

import (
	"time"

	"repro/internal/sim"
)

// Metrics are the paper's measured steady-state quantities for one run.
// They are a pure function of the Scenario: the same scenario — including
// one recovered from its JSON form — reproduces them bit for bit. The
// engine declares them (sim.Metrics), fields and JSON form alike.
type Metrics = sim.Metrics

// RunMeta records how a result was produced, as opposed to what was
// measured: reproducibility inputs and the wall-clock cost. Two runs of
// the same scenario agree on Metrics but may differ here.
type RunMeta struct {
	// Seed is the RNG seed the run actually used.
	Seed int64 `json:"seed"`
	// Workers is the concurrency bound the run was configured with.
	Workers int `json:"workers"`
	// WallTime is the host time the run took, calibration included.
	WallTime time.Duration `json:"wall_time_ns"`
	// PointIndex is the position of this result in its Sweep grid, and 0
	// for a standalone Run.
	PointIndex int `json:"point_index"`
}

// TraceSample is one point of a transient run's frequency/delay trace
// (one per control period), as the engine records it (sim.Sample).
type TraceSample = sim.Sample

// Result is the outcome of one Run: the fully resolved scenario (with
// any automatic calibration filled in), the paper's metrics, and the run
// metadata.
type Result struct {
	// Scenario is the scenario as executed: normalized, and with the
	// calibration that was used (automatic or supplied). Re-running it
	// reproduces Metrics exactly.
	Scenario Scenario `json:"scenario"`
	Metrics
	// Trace holds the per-control-period frequency/delay trajectory when
	// the scenario was run with Transient set, nil otherwise.
	Trace []TraceSample `json:"trace,omitempty"`
	Meta  RunMeta       `json:"meta"`
}
