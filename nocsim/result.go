package nocsim

import (
	"time"

	"repro/internal/sim"
)

// Metrics are the paper's measured steady-state quantities for one run.
// They are a pure function of the Scenario: the same scenario — including
// one recovered from its JSON form — reproduces them bit for bit.
type Metrics struct {
	// AvgLatencyCycles is the mean packet latency in network clock cycles
	// (Fig. 2a's metric).
	AvgLatencyCycles float64 `json:"avg_latency_cycles"`
	// AvgDelayNs is the mean packet delay in nanoseconds (Fig. 2b's
	// metric: latency integrated over the frequency trajectory).
	AvgDelayNs float64 `json:"avg_delay_ns"`
	// P99DelayNs approximates the 99th-percentile delay.
	P99DelayNs float64 `json:"p99_delay_ns"`
	// Packets is the number of packets measured.
	Packets int64 `json:"packets"`
	// OfferedRate is the offered load in flits per node per node cycle.
	OfferedRate float64 `json:"offered_rate"`
	// Throughput is the accepted rate in flits per node per node cycle.
	Throughput float64 `json:"throughput"`
	// AvgFreqHz and AvgVolts are time-weighted averages over the
	// measurement window.
	AvgFreqHz float64 `json:"avg_freq_hz"`
	AvgVolts  float64 `json:"avg_volts"`
	// AvgPowerMW is the average network power in milliwatts;
	// SwitchingMW, ClockMW and LeakageMW decompose it.
	AvgPowerMW  float64 `json:"avg_power_mw"`
	SwitchingMW float64 `json:"switching_mw"`
	ClockMW     float64 `json:"clock_mw"`
	LeakageMW   float64 `json:"leakage_mw"`
	// Saturated reports whether the run hit a saturation guard.
	Saturated bool `json:"saturated"`
	// ElapsedNs is the simulated real time of the measurement window.
	ElapsedNs float64 `json:"elapsed_ns"`
	// NetCycles is the number of network cycles simulated in total.
	NetCycles int64 `json:"net_cycles"`
}

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
// (one per control period).
type TraceSample struct {
	// TimeNs is the simulated time of the sample.
	TimeNs float64 `json:"time_ns"`
	// FreqHz and Volts are the commanded operating point.
	FreqHz float64 `json:"freq_hz"`
	Volts  float64 `json:"volts"`
	// DelayNs is the window-average delay reported to the controller.
	DelayNs float64 `json:"delay_ns"`
}

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

// metricsFrom converts an engine result to the public metrics form.
func metricsFrom(r sim.Result) Metrics {
	return Metrics{
		AvgLatencyCycles: r.AvgLatencyCycles,
		AvgDelayNs:       r.AvgDelayNs,
		P99DelayNs:       r.P99DelayNs,
		Packets:          r.Packets,
		OfferedRate:      r.OfferedRate,
		Throughput:       r.Throughput,
		AvgFreqHz:        r.AvgFreqHz,
		AvgVolts:         r.AvgVolts,
		AvgPowerMW:       r.AvgPowerMW,
		SwitchingMW:      r.SwitchingMW,
		ClockMW:          r.ClockMW,
		LeakageMW:        r.LeakageMW,
		Saturated:        r.Saturated,
		ElapsedNs:        r.ElapsedNs,
		NetCycles:        r.NetCycles,
	}
}
