package nocsim

import "fmt"

// Option mutates a Scenario under construction. Options are applied in
// order by New and With; the resulting scenario is validated eagerly, so
// an impossible combination fails at construction time, not at Run time.
type Option func(*Scenario) error

// New builds a Scenario from the paper's baseline defaults (5x5 mesh,
// uniform traffic at rate 0.2, No-DVFS, 1 GHz node clock, seed 1) with
// the given options applied, and validates it eagerly.
func New(opts ...Option) (Scenario, error) {
	s := Scenario{}.normalized()
	return s.With(opts...)
}

// MustNew is New but panics on error; for tests and package-level
// variables with options known to be valid.
func MustNew(opts ...Option) Scenario {
	s, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// With returns a copy of the scenario with the options applied and
// validated. The receiver is not modified.
func (s Scenario) With(opts ...Option) (Scenario, error) {
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return Scenario{}, err
		}
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// WithMesh sets the mesh dimensions.
func WithMesh(width, height int) Option {
	return func(s *Scenario) error {
		s.Mesh.Width, s.Mesh.Height = width, height
		return nil
	}
}

// WithVCs sets the number of virtual channels per input port.
func WithVCs(n int) Option {
	return func(s *Scenario) error { s.Mesh.VCs = n; return nil }
}

// WithBuffers sets the flit buffer depth per virtual channel.
func WithBuffers(n int) Option {
	return func(s *Scenario) error { s.Mesh.BufDepth = n; return nil }
}

// WithPacketSize sets the packet length in flits.
func WithPacketSize(n int) Option {
	return func(s *Scenario) error { s.Mesh.PacketSize = n; return nil }
}

// WithRouting selects the routing algorithm.
func WithRouting(r Routing) Option {
	return func(s *Scenario) error { s.Mesh.Routing = r; return nil }
}

// WithPattern selects a synthetic traffic pattern and clears any app.
func WithPattern(name string) Option {
	return func(s *Scenario) error {
		s.Pattern, s.App = name, ""
		return nil
	}
}

// WithApp selects a multimedia workload by name ("h264" or "vce"),
// clears any synthetic pattern, and resizes the mesh to the workload's
// mapping (4x4 for h264, 5x5 for vce).
func WithApp(name string) Option {
	return func(s *Scenario) error {
		app, err := appByName(name)
		if err != nil {
			return err
		}
		s.App, s.Pattern = name, ""
		s.Mesh.Width, s.Mesh.Height = app.Width, app.Height
		if s.PeakRate == 0 {
			s.PeakRate = defaultPeakRate()
		}
		return nil
	}
}

// WithPeakRate sets the busiest-node injection rate at app speed 1.0.
func WithPeakRate(rate float64) Option {
	return func(s *Scenario) error { s.PeakRate = rate; return nil }
}

// WithLoad sets the operating point: the injection rate for synthetic
// patterns, the relative speed for apps.
func WithLoad(load float64) Option {
	return func(s *Scenario) error { s.Load = load; return nil }
}

// WithPolicy selects the DVFS controller.
func WithPolicy(kind PolicyKind) Option {
	return func(s *Scenario) error { s.Policy = kind; return nil }
}

// WithCalibration pins the policy operating points, skipping automatic
// calibration in Run and Sweep.
func WithCalibration(c Calibration) Option {
	return func(s *Scenario) error { s.Calibration = &c; return nil }
}

// WithAutoCalibration clears any pinned calibration so Run and Sweep
// calibrate automatically.
func WithAutoCalibration() Option {
	return func(s *Scenario) error { s.Calibration = nil; return nil }
}

// WithNodeClock sets the node clock frequency in Hz.
func WithNodeClock(hz float64) Option {
	return func(s *Scenario) error { s.FNodeHz = hz; return nil }
}

// WithFreqRange bounds the DVFS actuation range in Hz.
func WithFreqRange(fminHz, fmaxHz float64) Option {
	return func(s *Scenario) error {
		s.FMinHz, s.FMaxHz = fminHz, fmaxHz
		return nil
	}
}

// WithSeed sets the root RNG seed. The seed must be non-zero: on the
// JSON wire form an absent seed defaults to 1, so zero cannot name a
// distinct stream, and passing it here is rejected rather than silently
// remapped.
func WithSeed(seed int64) Option {
	return func(s *Scenario) error {
		if seed == 0 {
			return fmt.Errorf("nocsim: seed must be non-zero")
		}
		s.Seed = seed
		return nil
	}
}

// WithControlPeriod overrides the DVFS control update period in node
// cycles (the paper's Sec. IV period ablation; 0 restores the default).
func WithControlPeriod(cycles int64) Option {
	return func(s *Scenario) error { s.ControlPeriod = cycles; return nil }
}

// WithGains overrides the DMSD PI gains (0 keeps the paper's published
// value for that gain).
func WithGains(ki, kp float64) Option {
	return func(s *Scenario) error { s.KI, s.KP = ki, kp; return nil }
}

// WithFreqLevels quantizes the actuation range into n discrete frequency
// levels (the paper's footnote 2; 0 restores continuous actuation).
func WithFreqLevels(n int) Option {
	return func(s *Scenario) error { s.FreqLevels = n; return nil }
}

// WithTransient captures the controller's cold-start transient instead
// of the steady state: the run starts at FMax with no warm start, and
// the Result carries a per-control-period frequency/delay trace.
func WithTransient() Option {
	return func(s *Scenario) error { s.Transient = true; return nil }
}

// WithQuick shrinks warmup and measurement windows roughly 4x, for smoke
// tests and examples that must run in seconds.
func WithQuick() Option {
	return func(s *Scenario) error { s.Quick = true; return nil }
}

// WithWorkers bounds how many simulation points run concurrently in
// Sweep, Calibrate and FindSaturation (0 = GOMAXPROCS, 1 = serial).
func WithWorkers(n int) Option {
	return func(s *Scenario) error { s.Workers = n; return nil }
}

// WithPacketLog attaches a per-packet lifecycle log to the scenario's
// runs. The log is a runtime attachment — it does not survive JSON
// marshalling — and forces sweeps to run serially so records do not
// interleave.
func WithPacketLog(l *PacketLog) Option {
	return func(s *Scenario) error { s.packetLog = l; return nil }
}

// WithTrace replays the recorded injection trace in the file at ref
// instead of generating traffic, clearing any pattern, app or bursty
// source. Replay consumes no randomness, so it reproduces the capture
// run bit for bit; runs longer than the trace stop injecting when the
// recorded events are exhausted. RMSD and DMSD scenarios must carry a
// pinned calibration (the calibration search varies load, which a
// fixed trace ignores). The file is read when the scenario runs.
func WithTrace(ref string) Option {
	return func(s *Scenario) error {
		if ref == "" {
			return fmt.Errorf("nocsim: empty trace reference")
		}
		s.TraceRef = ref
		s.Pattern, s.App, s.Source = "", "", nil
		return nil
	}
}

// WithTraceCapture records every packet the run generates into t as
// injection-trace events; save the result with Trace.Save and replay
// it with WithTrace. The sink is a runtime attachment — it does not
// survive JSON marshalling — and forces sweeps and calibration probes
// to run serially; the sink then holds the events of the last run that
// used it (the main measurement run, for Run with auto-calibration).
func WithTraceCapture(t *Trace) Option {
	return func(s *Scenario) error { s.traceCapture = t; return nil }
}

// WithMMPP layers a two-state Markov-modulated source under the
// scenario's synthetic pattern: each node alternates between OFF (no
// injection) and ON at burstRatio times its nominal rate, with
// geometric sojourns of mean burstLen cycles ON and
// burstLen·(burstRatio−1) cycles OFF. The long-run mean rate stays
// exactly the scenario's load; pass 0 for either parameter to use its
// default (ratio 4, length 64).
func WithMMPP(burstRatio, burstLen float64) Option {
	return func(s *Scenario) error {
		sp := SourceSpec{Kind: SourceMMPP, BurstRatio: burstRatio, BurstLen: burstLen}
		s.Source = sp.withDefaults()
		return nil
	}
}

// WithParetoOnOff layers an on-off source with Pareto-tailed sojourn
// times (tail index alpha in (1, 2], heavier tails as it approaches 1)
// under the scenario's synthetic pattern, producing self-similar burst
// trains with the same mean sojourns as WithMMPP. Pass 0 for any
// parameter to use its default (ratio 4, length 64, alpha 1.5).
func WithParetoOnOff(burstRatio, burstLen, alpha float64) Option {
	return func(s *Scenario) error {
		sp := SourceSpec{Kind: SourcePareto, BurstRatio: burstRatio, BurstLen: burstLen, ParetoAlpha: alpha}
		s.Source = sp.withDefaults()
		return nil
	}
}

// WithFaultyLinks masks the named directed mesh channels out of the
// fabric, each in the "from>to" form (ids of adjacent routers; mask
// both directions for a fully dead wire). The network routes around
// faults with a minimal fault-aware table; o1turn routing is rejected,
// and a fault set that disconnects the mesh fails at Run time.
func WithFaultyLinks(links ...string) Option {
	return func(s *Scenario) error {
		s.FaultyLinks = append([]string(nil), links...)
		return nil
	}
}

// WithIslands declares rectangular V/F islands: regions of routers
// advancing only a Speed fraction of network cycles, layered under the
// global DVFS frequency. Overlapping islands resolve in favour of the
// later one listed.
func WithIslands(islands ...Island) Option {
	return func(s *Scenario) error {
		s.Islands = append([]Island(nil), islands...)
		return nil
	}
}
