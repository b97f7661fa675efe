// Package dvfs implements the paper's two global DVFS policies for the NoC
// plus the No-DVFS baseline:
//
//   - RMSD (Rate-based Max Slow Down, Sec. III): open-loop. From the
//     measured average node injection rate λnode it sets
//     Fnoc = Fnode·λnode/λmax clipped to [Fmin, Fmax] (Eq. 2), keeping the
//     network injection rate pinned at λmax just below saturation.
//   - DMSD (Delay-based Max Slow Down, Sec. IV): closed-loop. A
//     proportional-integral controller drives Fnoc so the measured average
//     end-to-end packet delay tracks a target delay.
//
// Controllers consume one Measurement per control period (10 000 node
// cycles in the paper) and return the next network frequency. An optional
// discrete level table quantizes the actuation (paper footnote 2).
package dvfs

import (
	"errors"
	"fmt"

	"repro/internal/volt"
)

// Measurement is the per-control-period input to a policy, aggregated by
// the controller node from the per-node monitors.
type Measurement struct {
	// NodeCycles is the number of node clock cycles in the window.
	NodeCycles float64
	// OfferedFlits is the number of flits generated network-wide during
	// the window (the transmitting nodes' rate reports in RMSD).
	OfferedFlits int64
	// Nodes is the number of injecting nodes.
	Nodes int
	// AvgDelayNs is the average end-to-end packet delay, in nanoseconds,
	// of packets received during the window (the receiving nodes' delay
	// reports in DMSD). It is NaN-free: when no packets arrived,
	// DelaySamples is 0 and AvgDelayNs is 0.
	AvgDelayNs float64
	// DelaySamples is the number of packets behind AvgDelayNs.
	DelaySamples int64
}

// NodeRate returns the measured average injection rate λnode in flits per
// node per node cycle.
func (m Measurement) NodeRate() float64 {
	if m.NodeCycles == 0 || m.Nodes == 0 {
		return 0
	}
	return float64(m.OfferedFlits) / m.NodeCycles / float64(m.Nodes)
}

// Policy is a global DVFS controller: it receives one Measurement per
// control period and returns the network clock frequency for the next
// period, in Hz, already clipped to the actuator's range.
type Policy interface {
	// Next consumes one control-period measurement and returns the next
	// network frequency in Hz.
	Next(m Measurement) float64
	// Freq returns the currently commanded frequency in Hz.
	Freq() float64
	// Reset restores the controller's initial state.
	Reset()
}

// Clip bounds f to [lo, hi].
func Clip(f, lo, hi float64) float64 {
	if f < lo {
		return lo
	}
	if f > hi {
		return hi
	}
	return f
}

// Range is the actuator frequency range shared by the policies.
type Range struct {
	FMin, FMax float64
	// Levels, when non-nil, quantizes commanded frequencies up to the
	// nearest discrete operating point.
	Levels *volt.Levels
}

// Validate checks the range.
func (r Range) Validate() error {
	if r.FMin <= 0 || r.FMin >= r.FMax {
		return fmt.Errorf("dvfs: invalid frequency range [%g, %g]", r.FMin, r.FMax)
	}
	if r.Levels != nil && len(r.Levels.Freqs) < 2 {
		return errors.New("dvfs: level table needs at least 2 entries")
	}
	return nil
}

// apply clips and optionally quantizes a commanded frequency.
func (r Range) apply(f float64) float64 {
	f = Clip(f, r.FMin, r.FMax)
	if r.Levels != nil {
		f = Clip(r.Levels.Snap(f), r.FMin, r.FMax)
	}
	return f
}

// NoDVFS is the baseline: the network always runs at the node frequency.
type NoDVFS struct {
	fnode float64
}

// NewNoDVFS returns the baseline policy pinned at fnode Hz.
func NewNoDVFS(fnode float64) *NoDVFS { return &NoDVFS{fnode: fnode} }

// Next implements Policy.
func (p *NoDVFS) Next(Measurement) float64 { return p.fnode }

// Freq implements Policy.
func (p *NoDVFS) Freq() float64 { return p.fnode }

// Reset implements Policy.
func (p *NoDVFS) Reset() {}
