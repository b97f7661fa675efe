// Package sim is the experiment engine: it couples the cycle-accurate
// network (package noc), the node-clock injection processes (package
// traffic), a global DVFS policy (package dvfs), the voltage-frequency
// model (package volt) and the power model (package power) into a single
// simulation with two clock domains, mirroring the paper's modified
// Booksim with a network clock decoupled from the node clock.
//
// The engine advances one *network* cycle at a time. Each network cycle
// lasts 1/Fnoc seconds, during which Fnode/Fnoc node clock cycles elapse;
// the engine carries the fractional remainder so the node clock never
// drifts. Injection (and the DVFS control period) live in the node domain;
// router pipelines live in the network domain. Delay in nanoseconds is
// accumulated at the then-current network frequency, so a packet's delay
// is its latency integrated over the frequency trajectory — exactly the
// Lnoc/Fnoc relationship of Sec. III when the frequency is constant.
//
// Energy is priced after the run, not while it steps: the engine records
// each constant-(f, V) segment it closes (activity, network cycles, V, f)
// and the index of the segment where the measurement window opens, and
// power.Model.WindowMW turns that list into the window's average power.
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/volt"
)

// Params configures one simulation run. Zero-value durations fall back to
// the defaults documented on each field.
type Params struct {
	// Noc is the network fabric configuration.
	Noc noc.Config
	// Injector supplies the offered traffic (node clock domain).
	Injector *traffic.Injector
	// Policy is the global DVFS controller. Use dvfs.NewNoDVFS for the
	// baseline.
	Policy dvfs.Policy
	// VF maps commanded frequencies to supply voltages.
	VF volt.Model
	// Power, when non-nil, prices the measurement window's energy.
	Power *power.Model

	// Faults lists directed mesh channels masked out of the fabric; the
	// network installs a fault-aware minimal route table for them (see
	// noc.NewNetworkWithFaults).
	Faults []noc.Link
	// Islands are per-region V/F clock dividers layered under the global
	// DVFS frequency (see noc.SetIslands).
	Islands []noc.Island

	// FNode is the node clock frequency in Hz (default 1 GHz, the paper's
	// Fnode = Fmax).
	FNode float64

	// ControlPeriod is the DVFS control update period in node clock
	// cycles (default dvfs.ControlPeriodNodeCycles = 10 000).
	ControlPeriod int64
	// Warmup is the number of node cycles before measurement starts
	// (default 30 000). With AdaptiveWarmup it is the *minimum* warmup.
	Warmup int64
	// Measure is the measurement window length in node cycles (default
	// 60 000).
	Measure int64
	// AdaptiveWarmup delays measurement until the commanded frequency has
	// been stable (relative change below 0.3%, stabilityRelTol) for
	// settlePeriods consecutive control periods, capped at MaxWarmup node
	// cycles. Closed-loop policies (DMSD) need it; open-loop policies
	// settle within a period or two anyway.
	AdaptiveWarmup bool
	// MaxWarmup caps adaptive warmup (default 1 000 000 node cycles).
	MaxWarmup int64

	// TraceFreq, when true, records one Sample per control period.
	TraceFreq bool
	// PacketLog, when non-nil, records the lifecycle of every packet
	// delivered during the measurement window.
	PacketLog *trace.Log

	// Spare, when non-nil, is where the run may borrow a second core for
	// its heavy cycles (see noc.Spare); nocsim.runSim offers the leaf
	// budget's free slots. It never changes a result, only how fast the
	// run steps.
	Spare noc.Spare

	// backlogPerNode replaces satBacklogPerNode when set. Only tests set
	// it, to force or forbid the early abort.
	backlogPerNode float64
}

// The saturation guards and the adaptive-warmup settling length.
const (
	// satLatencyCycles marks a run saturated when its measured average
	// latency exceeds this many network cycles.
	satLatencyCycles = 1000
	// satBacklogPerNode marks a run saturated when the average source
	// backlog exceeds this many packets per node; at twice it the run
	// aborts early.
	satBacklogPerNode = 25
	// settlePeriods is the number of consecutive stable control periods
	// AdaptiveWarmup waits for.
	settlePeriods = 5
)

// Sample is one point of a run's frequency/delay trace, one per control
// period. nocsim publishes it as TraceSample; its JSON form is the wire
// form of a transient Result's trace.
type Sample struct {
	// TimeNs is the simulated time of the sample.
	TimeNs float64 `json:"time_ns"`
	// FreqHz and Volts are the commanded operating point.
	FreqHz float64 `json:"freq_hz"`
	Volts  float64 `json:"volts"`
	// DelayNs is the window-average delay reported to the controller.
	DelayNs float64 `json:"delay_ns"`
}

// Metrics are the paper's measured steady-state quantities for one run.
// They are a pure function of the run's parameters and seed: the same
// run reproduces them bit for bit. nocsim publishes them as
// nocsim.Metrics, and their JSON form is the wire form of its Result.
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
	// OfferedRate is the nominal offered load in flits per node per node
	// cycle: the mean of the configured per-node rates
	// (Injector.MeanRate), not the flits the sources generated in the
	// measurement window.
	OfferedRate float64 `json:"offered_rate"`
	// Throughput is the accepted rate in flits per node per node cycle.
	Throughput float64 `json:"throughput"`
	// AvgFreqHz and AvgVolts are time-weighted averages over the
	// measurement window.
	AvgFreqHz float64 `json:"avg_freq_hz"`
	AvgVolts  float64 `json:"avg_volts"`
	// AvgPowerMW is the average network power in milliwatts over the
	// measurement window (0 when Params.Power is nil); SwitchingMW,
	// ClockMW and LeakageMW decompose it.
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

// Result is what one run measured: its Metrics, the actual length of its
// measurement window, and its frequency trace.
type Result struct {
	Metrics
	// MeasuredNodeCycles is the actual length of the measurement window in
	// node cycles; it equals Params.Measure unless the run aborted early.
	MeasuredNodeCycles int64
	// Trace holds the frequency trace when Params.TraceFreq is set.
	Trace []Sample
}

func (p *Params) setDefaults() {
	if p.FNode == 0 {
		p.FNode = 1e9
	}
	if p.ControlPeriod == 0 {
		p.ControlPeriod = dvfs.ControlPeriodNodeCycles
	}
	if p.Warmup == 0 {
		p.Warmup = 30000
	}
	if p.Measure == 0 {
		p.Measure = 60000
	}
	if p.backlogPerNode == 0 {
		p.backlogPerNode = satBacklogPerNode
	}
	if p.MaxWarmup == 0 {
		p.MaxWarmup = 1_000_000
	}
}

func (p *Params) validate() error {
	var errs []error
	if err := p.Noc.Validate(); err != nil {
		errs = append(errs, err)
	}
	if p.Injector == nil {
		errs = append(errs, errors.New("sim: nil injector"))
	}
	if p.Policy == nil {
		errs = append(errs, errors.New("sim: nil policy"))
	}
	if p.FNode <= 0 {
		errs = append(errs, fmt.Errorf("sim: node frequency %g", p.FNode))
	}
	if p.ControlPeriod < 1 {
		errs = append(errs, fmt.Errorf("sim: control period %d", p.ControlPeriod))
	}
	if p.Warmup < 0 || p.Measure < 1 {
		errs = append(errs, fmt.Errorf("sim: warmup %d / measure %d", p.Warmup, p.Measure))
	}
	if p.Power != nil {
		if err := p.Power.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("sim: power model: %w", err))
		}
	}
	return errors.Join(errs...)
}

// Run executes one simulation and returns its measured Result. It is
// RunContext with a background context: the run cannot be cancelled.
func Run(p Params) (Result, error) {
	return RunContext(context.Background(), p)
}

// ctxCheckCycles is how many network cycles elapse between context
// checks inside the engine loop; the check is a non-blocking receive, so
// even this interval keeps it below a thousandth of a light step. The
// wall time between checks is 256 steps: about 0.05 ms on an idle mesh,
// 1.8 ms on a saturated 5x5 and 5 ms on a saturated 8x8 (19.8 µs a step
// on a two-vCPU host; 10–13 µs split across a borrowed core), which
// bounds how late a cancelled run stops on an idle host. A host whose
// cores are busy with other work stretches every step alike.
// A borrowed core is not on this tick: the network checks Spare.Wanted
// every cycle.
const ctxCheckCycles = 256

// RunContext executes one simulation under ctx and returns its measured
// Result. The engine polls the context every ctxCheckCycles network cycles:
// when ctx is cancelled mid-run the simulation stops promptly, discards
// its partial measurement, and returns ctx.Err(). A context that is
// already cancelled on entry returns before the network is even built.
//
// The network is taken from, and afterwards returned to, a process-wide
// free list of fabrics (see fabric.go), so a process that runs many points
// on one mesh builds it once per concurrent run rather than once per
// point. The run owns the network exclusively in between.
func RunContext(ctx context.Context, p Params) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	p.setDefaults()
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	key := newFabricKey(p.Noc, p.Faults)
	fb, err := acquireFabric(key, p.Faults)
	if err != nil {
		return Result{}, err
	}
	res, err := runOn(ctx, p, fb)
	// Reached when the run completed or was cancelled, not when it
	// panicked: a fabric whose run blew up is not offered to another.
	releaseFabric(key, fb)
	return res, err
}

// runOn runs the engine on an acquired fabric. Whatever way the run
// ends, panics included, the network gives back a core it borrowed and
// has no helper left touching it by the time runOn returns.
func runOn(ctx context.Context, p Params, fb *fabric) (Result, error) {
	net := fb.net
	if err := net.SetIslands(p.Islands); err != nil {
		return Result{}, err
	}
	net.SetSpare(p.Spare)
	defer func() {
		net.SetSpare(nil)
		countSpareUse(net)
	}()
	p.Policy.Reset()

	eng := &engine{
		p:      p,
		net:    net,
		delayH: fb.delayH,
		segs:   fb.segs,
		f:      p.Policy.Freq(),
	}
	eng.v = p.VF.VoltageFor(eng.f)
	err := eng.run(ctx)
	fb.segs = eng.segs // the grown buffer serves the fabric's next run
	if err != nil {
		return Result{}, err
	}
	return eng.result(), nil
}

// engine holds the mutable state of one run.
type engine struct {
	p   Params
	net *noc.Network

	f, v  float64 // current network frequency (Hz) and voltage (V)
	nowNs float64 // simulated real time
	frac  float64 // fractional node cycles carried between network cycles

	nodeCycles int64 // whole node cycles elapsed

	measuring     bool
	measStartNs   float64
	measStartNode int64 // node cycle when measurement started
	measFlits     int64 // flits ejected during measurement
	measStartSeg  int   // index in segs of the window's first segment
	stableRuns    int   // consecutive control periods with a stable F

	latency stats.Stream // network cycles
	delay   stats.Stream // nanoseconds
	delayH  *stats.Histogram

	ctrlDelay stats.Window // per-control-period delay average (ns)

	// Constant-(f, v) segments closed so far, priced after the run, and
	// the network cycle and cumulative activity the open one started at.
	segs          []power.Segment
	segStartCycle int64
	segAct        noc.RouterActivity
	fTimeSum      float64 // ∫f dt over measurement
	vTimeSum      float64 // ∫v dt over measurement
	measTime      float64 // measurement wall time (seconds)

	saturated bool
	aborted   bool

	trace []Sample
}

// p99HistMaxNs caps the auto-extension of the delay histogram. Doubling
// from the initial 5 µs range reaches it in ten steps, at which point one
// bin spans 5.12 µs — coarse, but saturated runs report delays of that
// magnitude, not sub-microsecond ones.
const p99HistMaxNs = 5_120_000

// newDelayHistogram builds a run's packet-delay histogram. Its range
// extends on demand so P99 is never clamped at the initial upper bound
// when the network saturates.
func newDelayHistogram() *stats.Histogram {
	h, _ := stats.NewExtendingHistogram(0, 5000, 1000, p99HistMaxNs) // a valid spec: no error
	return h
}

func (e *engine) run(ctx context.Context) error {
	p := &e.p
	e.net.OnArrive = func(pk *noc.Packet, cycle int64) {
		d := e.nowNs - pk.CreateTime
		e.ctrlDelay.Add(d)
		if e.measuring {
			e.latency.Add(float64(pk.ArriveCycle - pk.CreateCycle))
			e.delay.Add(d)
			e.delayH.Add(d)
			if p.PacketLog != nil {
				p.PacketLog.AddPacket(pk, d)
			}
		}
	}

	nextCtrl := p.ControlPeriod
	p.Injector.WindowReset()

	done := ctx.Done()
	ctxCheck := int64(ctxCheckCycles)
	for !e.aborted && (!e.measuring || e.nodeCycles < e.measStartNode+p.Measure) {
		if done != nil {
			if ctxCheck--; ctxCheck <= 0 {
				ctxCheck = ctxCheckCycles
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
		}
		dtNs := 1e9 / e.f
		e.nowNs += dtNs

		// Node clock domain: Fnode/Fnoc node cycles per network cycle.
		e.frac += p.FNode / e.f
		for e.frac >= 1 {
			e.frac--
			// Start of measurement window.
			if !e.measuring && e.warmupDone() {
				e.beginMeasurement()
			}
			p.Injector.NodeCycle(e.net, e.nowNs)
			e.nodeCycles++
			if e.nodeCycles == nextCtrl {
				nextCtrl += p.ControlPeriod
				e.controlUpdate()
			}
			// End the measurement window at the exact node cycle. When
			// the network clock is slower than the node clock, a network
			// cycle spans several node cycles; without this check the
			// window would overshoot by up to FNode/Fnoc−1 node cycles.
			if e.measuring && e.nodeCycles >= e.measStartNode+p.Measure {
				break
			}
		}

		e.net.Step()

		if e.measuring {
			dt := float64(dtNs * 1e-9)
			e.fTimeSum += float64(e.f * dt)
			e.vTimeSum += float64(e.v * dt)
			e.measTime += dt
		}
	}
	e.closeSegment()
	// Final saturation assessment on the measured latency.
	if e.latency.N() > 0 && e.latency.Mean() > satLatencyCycles {
		e.saturated = true
	}
	if float64(e.net.SourceBacklog()) > p.backlogPerNode*float64(p.Noc.Nodes()) {
		e.saturated = true
	}
	return nil
}

// warmupDone reports whether measurement may begin at the current node
// cycle.
func (e *engine) warmupDone() bool {
	p := &e.p
	if e.nodeCycles < p.Warmup {
		return false
	}
	if !p.AdaptiveWarmup {
		return true
	}
	return e.stableRuns >= settlePeriods || e.nodeCycles >= p.MaxWarmup
}

func (e *engine) beginMeasurement() {
	e.measuring = true
	e.measStartNs = e.nowNs
	e.measStartNode = e.nodeCycles
	_, _, _, ejected := e.net.Stats()
	e.measFlits = -ejected // count from here: final ejected + this offset
	e.closeSegment()
	e.measStartSeg = len(e.segs)
}

// controlUpdate runs once per control period: it reports the window
// measurement to the policy, actuates the commanded frequency/voltage, and
// closes the power segment when the operating point changes.
func (e *engine) controlUpdate() {
	p := &e.p
	delaySum, delayCount := e.ctrlDelay.Drain()
	offered := p.Injector.WindowFlits()
	p.Injector.WindowReset()

	m := dvfs.Measurement{
		NodeCycles:   float64(p.ControlPeriod),
		OfferedFlits: offered,
		Nodes:        p.Noc.Nodes(),
		DelaySamples: delayCount,
	}
	if delayCount > 0 {
		m.AvgDelayNs = delaySum / float64(delayCount)
	}
	newF := p.Policy.Next(m)
	e.updateStability(m, newF)
	if newF != e.f {
		e.closeSegment()
		e.f = newF
		e.v = p.VF.VoltageFor(newF)
	}
	if p.TraceFreq {
		e.trace = append(e.trace, Sample{TimeNs: e.nowNs, FreqHz: e.f, Volts: e.v, DelayNs: m.AvgDelayNs})
	}

	// Saturation abort: runaway backlog means the offered load cannot be
	// delivered at any frequency in range; finishing the run would only
	// waste time.
	if float64(e.net.SourceBacklog()) > 2*p.backlogPerNode*float64(p.Noc.Nodes()) {
		e.saturated = true
		e.aborted = true
	}
}

// delayTargeter is implemented by closed-loop policies with a delay
// setpoint (DMSD); the engine uses it to judge loop convergence.
type delayTargeter interface{ TargetNs() float64 }

// updateStability advances the adaptive-warmup settling detector. A control
// period counts as stable when the commanded frequency barely moved
// (covers open-loop policies and closed-loop policies pinned at a range
// limit) or, for delay-targeting policies, when the measured delay sits
// near the setpoint (covers limit-cycling around a steep plant, where the
// frequency keeps dithering but the loop has converged).
// stabilityRelTol is the relative frequency change below which one control
// period counts as stable for AdaptiveWarmup, as documented on
// Params.AdaptiveWarmup.
const stabilityRelTol = 0.003

func (e *engine) updateStability(m dvfs.Measurement, newF float64) {
	stable := false
	if rel := (newF - e.f) / e.f; rel < stabilityRelTol && rel > -stabilityRelTol {
		stable = true
	}
	if dt, ok := e.p.Policy.(delayTargeter); ok && m.DelaySamples > 0 {
		if errRel := (m.AvgDelayNs - dt.TargetNs()) / dt.TargetNs(); errRel < 0.15 && errRel > -0.15 {
			stable = true
		}
	}
	if stable {
		e.stableRuns++
	} else {
		e.stableRuns = 0
	}
}

// closeSegment records the elapsed constant-(f,v) segment.
func (e *engine) closeSegment() {
	cycles := e.net.Cycle() - e.segStartCycle
	if cycles <= 0 {
		return
	}
	act := e.net.Activity().RouterActivity
	e.segs = append(e.segs, power.Segment{Act: act.Sub(e.segAct), Cycles: cycles, V: e.v, F: e.f})
	e.segAct = act
	e.segStartCycle = e.net.Cycle()
}

func (e *engine) result() Result {
	p := &e.p
	// The exact window end in run() makes this p.Measure for completed
	// runs; aborted runs measured fewer node cycles, and the throughput
	// denominator must match what was actually measured. A run aborted
	// before its window opened measured nothing, throughput included.
	measCycles := int64(0)
	if e.measuring {
		measCycles = e.nodeCycles - e.measStartNode
	}
	throughput := 0.0
	if measCycles > 0 {
		_, _, _, ejected := e.net.Stats()
		throughput = float64(ejected+e.measFlits) / float64(measCycles) / float64(p.Noc.Nodes())
	}
	res := Result{
		Metrics: Metrics{
			AvgLatencyCycles: e.latency.Mean(),
			AvgDelayNs:       e.delay.Mean(),
			P99DelayNs:       e.delayH.Quantile(0.99),
			Packets:          e.latency.N(),
			Throughput:       throughput,
			OfferedRate:      p.Injector.MeanRate(),
			Saturated:        e.saturated,
			ElapsedNs:        e.nowNs - e.measStartNs,
			NetCycles:        e.net.Cycle(),
		},
		MeasuredNodeCycles: measCycles,
		Trace:              e.trace,
	}
	if e.measTime > 0 {
		res.AvgFreqHz = e.fTimeSum / e.measTime
		res.AvgVolts = e.vTimeSum / e.measTime
	} else {
		// Aborted before measuring: report the operating point the
		// controller had commanded when the run gave up.
		res.AvgFreqHz = e.f
		res.AvgVolts = e.v
	}
	// A run aborted before its window opened measured no energy either.
	if p.Power != nil && e.measuring {
		res.AvgPowerMW, res.SwitchingMW, res.ClockMW, res.LeakageMW = p.Power.WindowMW(p.Noc.Nodes(), e.segs, e.measStartSeg)
	}
	return res
}
