package nocsim

import (
	"errors"
	"fmt"

	"repro/internal/apps"
	"repro/internal/noc"
	"repro/internal/traffic"
	"repro/internal/volt"
)

// Routing names a deterministic routing algorithm.
type Routing string

// The supported routing algorithms.
const (
	// RoutingXY is dimension-ordered routing, X first (the paper's choice).
	RoutingXY Routing = "xy"
	// RoutingYX is dimension-ordered routing, Y first.
	RoutingYX Routing = "yx"
	// RoutingO1Turn picks XY or YX uniformly at random per packet.
	RoutingO1Turn Routing = "o1turn"
)

// PolicyKind names one of the paper's three DVFS controllers.
type PolicyKind string

// The three policies of the paper.
const (
	// NoDVFS pins the network clock at the node clock (the baseline).
	NoDVFS PolicyKind = "nodvfs"
	// RMSD is the rate-based policy: frequency proportional to the
	// offered rate.
	RMSD PolicyKind = "rmsd"
	// DMSD is the delay-based policy: a PI loop holding the measured
	// delay at a setpoint.
	DMSD PolicyKind = "dmsd"
)

// AllPolicies returns the paper's comparison set in presentation order.
func AllPolicies() []PolicyKind { return []PolicyKind{NoDVFS, RMSD, DMSD} }

// Mesh describes the network fabric.
type Mesh struct {
	// Width and Height are the mesh dimensions in routers.
	Width  int `json:"width"`
	Height int `json:"height"`
	// VCs is the number of virtual channels per input port.
	VCs int `json:"vcs"`
	// BufDepth is the number of flit slots per virtual-channel buffer.
	BufDepth int `json:"buf_depth"`
	// PacketSize is the packet length in flits.
	PacketSize int `json:"packet_size"`
	// Routing selects the routing algorithm.
	Routing Routing `json:"routing"`
}

// DefaultMesh returns the paper's baseline fabric: a 5x5 mesh with XY
// routing, 8 virtual channels, 4 flit buffers per channel and 20-flit
// packets (Sec. III, Fig. 2).
func DefaultMesh() Mesh {
	return Mesh{Width: 5, Height: 5, VCs: 8, BufDepth: 4, PacketSize: 20, Routing: RoutingXY}
}

// toNoc converts the mesh to the engine's fabric configuration.
func (m Mesh) toNoc() (noc.Config, error) {
	r, err := noc.ParseRouting(string(m.Routing))
	if err != nil {
		return noc.Config{}, err
	}
	return noc.Config{
		Width: m.Width, Height: m.Height, VCs: m.VCs,
		BufDepth: m.BufDepth, PacketSize: m.PacketSize, Routing: r,
	}, nil
}

// The source kinds SourceSpec and the -source CLI flag accept, as
// traffic.SourceMMPP and traffic.SourcePareto declare them.
const (
	SourceMMPP   = traffic.SourceMMPP
	SourcePareto = traffic.SourcePareto
)

// SourceSpec selects a bursty packet-generation process layered under a
// synthetic destination pattern, replacing the default Bernoulli
// (Poisson-like) process. The traffic package declares it
// (traffic.SourceConfig), fields, defaults and JSON form alike.
type SourceSpec = traffic.SourceConfig

// Island is a rectangular region of routers running at a reduced clock,
// as the network declares it (noc.Island), fields and JSON form alike.
type Island = noc.Island

// Calibration fixes the policy operating points of a scenario, following
// the paper's recipe (Sec. III/IV): λmax 10% below the measured
// saturation rate, and the DMSD setpoint equal to the full-speed delay at
// λmax. Obtain one with Calibrate, or fill the fields manually.
type Calibration struct {
	// SaturationRate is the measured saturation injection rate in flits
	// per node per node cycle.
	SaturationRate float64 `json:"saturation_rate"`
	// LambdaMax is the RMSD target network rate (0.9 × saturation).
	LambdaMax float64 `json:"lambda_max"`
	// TargetDelayNs is the DMSD setpoint.
	TargetDelayNs float64 `json:"target_delay_ns"`
}

// Scenario is one self-contained simulation job: fabric, traffic, load,
// policy and seed. Build one as a struct literal that states only what
// differs from the paper's baseline: every zero field takes its
// documented default (see Normalized), so the zero Scenario is the 5x5
// uniform No-DVFS job at rate 0.2. Run, Sweep, Calibrate and Grid.Point
// normalize and validate it; call Normalized and Validate directly to
// check or display one before running. A Scenario marshals to and from
// JSON losslessly, so it doubles as the wire form for distributing work:
// ship the bytes, Unmarshal, Run.
type Scenario struct {
	// Mesh is the network fabric.
	Mesh Mesh `json:"mesh"`
	// Pattern is a synthetic traffic pattern name ("uniform", "tornado",
	// "bitcomp", "transpose", "neighbor", "bitrev", "shuffle"). Exactly
	// one of Pattern and App is set.
	Pattern string `json:"pattern,omitempty"`
	// App selects a multimedia workload by name ("h264" or "vce")
	// instead of a synthetic pattern.
	App string `json:"app,omitempty"`
	// PeakRate is the busiest-node injection rate at App speed 1.0
	// (default 0.40 flits/node/cycle, the apps' calibrated peak).
	PeakRate float64 `json:"peak_rate,omitempty"`
	// TraceRef names a recorded injection-trace file (captured through
	// TraceCapture and saved with Trace.Save) to replay instead of
	// generating traffic. Replay is bit-identical to the capture run.
	// Pattern, App and Source must be empty, and RMSD/DMSD need a pinned
	// Calibration — the calibration search varies load, which a fixed
	// trace ignores. The file is read when the scenario runs, not when
	// it validates.
	TraceRef string `json:"trace,omitempty"`
	// Source layers a bursty generation process (MMPP or Pareto on-off)
	// under the synthetic pattern; nil is the plain Bernoulli process.
	// Sources combine with patterns only, not apps or traces.
	Source *SourceSpec `json:"source,omitempty"`

	// FaultyLinks lists directed mesh channels masked out of the fabric,
	// each in the "from>to" wire form (node ids of adjacent routers).
	// The network routes around them with a minimal fault-aware table
	// that reduces exactly to dimension-ordered routing when the fault
	// set is empty; o1turn routing cannot respect faults and is
	// rejected. A fault set that disconnects the mesh fails at Run time.
	FaultyLinks []string `json:"faulty_links,omitempty"`
	// Islands are rectangular V/F islands running at reduced clock
	// speed, layered under the global DVFS frequency.
	Islands []Island `json:"islands,omitempty"`

	// Load is the operating point: the injection rate in flits per node
	// per node cycle for synthetic patterns, or the relative application
	// speed (1.0 ≡ 75 frames/s) for apps.
	Load float64 `json:"load"`
	// Policy is the DVFS controller to run.
	Policy PolicyKind `json:"policy"`
	// Calibration fixes the policy operating points. When nil, Run
	// calibrates automatically (and records the result in its Result).
	Calibration *Calibration `json:"calibration,omitempty"`

	// FNodeHz is the node clock frequency in Hz (default 1 GHz).
	FNodeHz float64 `json:"fnode_hz"`
	// FMinHz and FMaxHz bound the DVFS actuation range (defaults
	// 333 MHz and 1 GHz, the paper's 28-nm range).
	FMinHz float64 `json:"fmin_hz"`
	FMaxHz float64 `json:"fmax_hz"`

	// ControlPeriod overrides the DVFS control update period in node
	// cycles (0 = the paper's 10 000, or the shortened Quick period).
	ControlPeriod int64 `json:"control_period,omitempty"`
	// KI and KP override the DMSD PI gains (0 = the paper's published
	// values).
	KI float64 `json:"ki,omitempty"`
	KP float64 `json:"kp,omitempty"`
	// FreqLevels quantizes the actuation range into this many discrete
	// frequency levels (0 = continuous actuation; the paper's footnote 2
	// studies discrete tables).
	FreqLevels int `json:"freq_levels,omitempty"`
	// Transient captures the controller's cold-start transient instead
	// of the steady state: no equilibrium warm start, a short fixed
	// warmup, a long measurement window, and a per-control-period
	// frequency/delay trace in the Result.
	Transient bool `json:"transient,omitempty"`

	// Seed is the root RNG seed (default 1). Sweep derives one
	// independent stream per grid point from it.
	Seed int64 `json:"seed"`
	// Quick shrinks warmup/measurement windows roughly 4x for smoke
	// tests and examples.
	Quick bool `json:"quick,omitempty"`
	// Workers bounds how many simulation points run concurrently in
	// Sweep, Calibrate and FindSaturation (0 = GOMAXPROCS, 1 = serial).
	// Results are byte-identical for every value.
	Workers int `json:"workers,omitempty"`

	// PacketLog, when set, records every measured packet's lifecycle. It
	// is a runtime attachment, not part of the wire form; it forces
	// sweeps to run serially so records do not interleave, and it makes
	// every calibration run afresh, since the calibration runs write into
	// it too.
	PacketLog *PacketLog `json:"-"`
	// TraceCapture, when set, records every packet the run generates as
	// an injection-trace event; save it with Trace.Save and replay it
	// through TraceRef. Like PacketLog it is a runtime attachment that
	// forces sweeps and calibration probes to run serially; the sink then
	// holds the events of the last run that used it (the main
	// measurement run, for Run with auto-calibration).
	TraceCapture *Trace `json:"-"`
}

// Normalized returns the scenario with every unset field replaced by
// the documented default, so a partial struct literal or hand-written
// JSON document names a complete job. Run, Sweep, Calibrate and
// FindSaturation normalize internally; call it directly when a scenario
// must be validated or displayed before running.
func (s Scenario) Normalized() Scenario { return s.normalized() }

// normalized implements Normalized. Router parameters (VCs, buffers,
// packet size, routing) default one by one, so a job that only states
// what it changed is still complete; the mesh dimensions default as a
// pair — a job naming just one of width/height is ambiguous and is left
// for Validate to reject.
func (s Scenario) normalized() Scenario {
	d := DefaultMesh()
	if s.Mesh.Width == 0 && s.Mesh.Height == 0 {
		s.Mesh.Width, s.Mesh.Height = d.Width, d.Height
		// An app scenario defaults to the mesh its graph is mapped on
		// (4x4 for h264, 5x5 for vce); an unknown app name is left for
		// Validate to report.
		if s.App != "" {
			if app, err := appByName(s.App); err == nil {
				s.Mesh.Width, s.Mesh.Height = app.App.Width, app.App.Height
			}
		}
	}
	if s.Mesh.VCs == 0 {
		s.Mesh.VCs = d.VCs
	}
	if s.Mesh.BufDepth == 0 {
		s.Mesh.BufDepth = d.BufDepth
	}
	if s.Mesh.PacketSize == 0 {
		s.Mesh.PacketSize = d.PacketSize
	}
	if s.Mesh.Routing == "" {
		s.Mesh.Routing = d.Routing
	}
	if s.Pattern == "" && s.App == "" && s.TraceRef == "" {
		s.Pattern = "uniform"
	}
	if s.App != "" && s.PeakRate == 0 {
		s.PeakRate = apps.DefaultPeakRate
	}
	if s.Source != nil {
		src := s.Source.WithDefaults()
		s.Source = &src
	}
	if s.Load == 0 {
		s.Load = 0.2 // the paper's reference operating point
	}
	if s.Policy == "" {
		s.Policy = NoDVFS
	}
	if s.FNodeHz == 0 {
		s.FNodeHz = 1e9
	}
	if s.FMinHz == 0 {
		s.FMinHz = volt.FMin
	}
	if s.FMaxHz == 0 {
		s.FMaxHz = volt.FMax
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate reports whether a normalized scenario is internally
// consistent. It is the one check a scenario passes: every entry point of
// this package (Run, Sweep, Calibrate, Grid.Point, ...) makes it after
// normalizing, and the layers below trust its verdict.
func (s Scenario) Validate() error {
	var errs []error
	cfg, err := s.Mesh.toNoc()
	cfgOK := err == nil
	if err != nil {
		errs = append(errs, err)
	} else if err := cfg.Validate(); err != nil {
		cfgOK = false
		errs = append(errs, err)
	}
	switch {
	case s.TraceRef != "":
		if s.Pattern != "" || s.App != "" {
			errs = append(errs, errors.New("nocsim: trace replay excludes patterns and apps"))
		}
		if s.Source != nil {
			errs = append(errs, errors.New("nocsim: trace replay excludes bursty sources"))
		}
		if (s.Policy == RMSD || s.Policy == DMSD) && s.Calibration == nil {
			errs = append(errs, errors.New("nocsim: trace scenarios cannot auto-calibrate (the saturation search varies load, which a fixed trace ignores); pin a calibration"))
		}
	case s.Pattern == "" && s.App == "":
		errs = append(errs, errors.New("nocsim: scenario needs a pattern, an app or a trace"))
	case s.Pattern != "" && s.App != "":
		errs = append(errs, errors.New("nocsim: scenario has both a pattern and an app"))
	case s.Pattern != "":
		if cfgOK {
			if _, err := traffic.ByName(s.Pattern, cfg); err != nil {
				errs = append(errs, err)
			}
		}
	default:
		app, err := appByName(s.App)
		if err != nil {
			errs = append(errs, err)
		} else if a := &app.App; s.Mesh.Width != a.Width || s.Mesh.Height != a.Height {
			errs = append(errs, fmt.Errorf("nocsim: app %q is mapped on a %dx%d mesh, scenario has %dx%d",
				s.App, a.Width, a.Height, s.Mesh.Width, s.Mesh.Height))
		}
	}
	if sp := s.Source; sp != nil {
		switch {
		case sp.Kind == "":
			errs = append(errs, errors.New(`nocsim: source needs a kind ("mmpp" or "pareto")`))
		case s.App != "":
			errs = append(errs, errors.New("nocsim: bursty sources combine with patterns only, not apps"))
		default:
			if err := sp.Validate(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if len(s.FaultyLinks) > 0 {
		links, err := parseFaults(s.FaultyLinks)
		if err != nil {
			errs = append(errs, err)
		} else if cfgOK {
			if err := noc.ValidateFaults(cfg, links); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if len(s.Islands) > 0 && cfgOK {
		if err := noc.ValidateIslands(cfg, s.Islands); err != nil {
			errs = append(errs, err)
		}
	}
	switch s.Policy {
	case NoDVFS, RMSD, DMSD:
	default:
		errs = append(errs, fmt.Errorf("nocsim: unknown policy %q", s.Policy))
	}
	if s.Load <= 0 {
		errs = append(errs, fmt.Errorf("nocsim: load %g must be positive", s.Load))
	}
	if s.FNodeHz <= 0 {
		errs = append(errs, fmt.Errorf("nocsim: node clock %g Hz", s.FNodeHz))
	}
	if s.FMinHz <= 0 || s.FMaxHz < s.FMinHz {
		errs = append(errs, fmt.Errorf("nocsim: frequency range [%g, %g] Hz", s.FMinHz, s.FMaxHz))
	}
	if s.PeakRate < 0 {
		errs = append(errs, fmt.Errorf("nocsim: peak rate %g", s.PeakRate))
	}
	if s.Workers < 0 {
		errs = append(errs, fmt.Errorf("nocsim: workers %d", s.Workers))
	}
	if s.ControlPeriod < 0 {
		errs = append(errs, fmt.Errorf("nocsim: control period %d", s.ControlPeriod))
	}
	if s.FreqLevels < 0 || s.FreqLevels == 1 {
		errs = append(errs, fmt.Errorf("nocsim: %d frequency levels (want 0 for continuous or >= 2)", s.FreqLevels))
	}
	if s.KI < 0 || s.KP < 0 {
		errs = append(errs, fmt.Errorf("nocsim: negative PI gains KI=%g KP=%g", s.KI, s.KP))
	}
	if c := s.Calibration; c != nil {
		if s.Policy == RMSD && c.LambdaMax <= 0 {
			errs = append(errs, errors.New("nocsim: rmsd needs calibration.lambda_max > 0"))
		}
		if s.Policy == DMSD && c.TargetDelayNs <= 0 {
			errs = append(errs, errors.New("nocsim: dmsd needs calibration.target_delay_ns > 0"))
		}
	}
	return errors.Join(errs...)
}

// parseFaults converts the "from>to" wire form of the fault list.
func parseFaults(refs []string) ([]noc.Link, error) {
	links := make([]noc.Link, 0, len(refs))
	for _, r := range refs {
		l, err := noc.ParseLink(r)
		if err != nil {
			return nil, err
		}
		links = append(links, l)
	}
	return links, nil
}

// appByName resolves a multimedia workload by its name, to the traffic
// table built once per process.
func appByName(name string) (*apps.Table, error) {
	if t, ok := apps.Lookup(name); ok {
		return t, nil
	}
	return nil, fmt.Errorf("nocsim: unknown app %q (want h264 or vce)", name)
}
