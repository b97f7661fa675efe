package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/noc"
	"repro/internal/trace"
)

// Source kinds recognized by SourceConfig. The empty kind is the plain
// Bernoulli (Poisson-like) process the paper uses everywhere.
const (
	// SourceMMPP is a two-state Markov-modulated process: each source
	// alternates between an OFF state (rate 0) and an ON state (rate
	// BurstRatio times the nominal rate), with geometrically distributed
	// sojourn times. The stationary ON fraction is 1/BurstRatio, so the
	// long-run mean rate stays exactly the scenario's load.
	SourceMMPP = "mmpp"
	// SourcePareto is the same on-off alternation with Pareto-tailed
	// sojourn times (tail index ParetoAlpha in (1,2]), producing
	// self-similar burst trains with the same mean sojourns as the MMPP
	// source.
	SourcePareto = "pareto"
)

// SourceConfig selects and parameterizes a bursty packet-generation
// process layered under a destination pattern. The long-run mean rate is
// always the nominal one: burstiness redistributes the same traffic in
// time, it never adds traffic. The zero value means the default
// Bernoulli process. nocsim publishes it as SourceSpec; its JSON form is
// the wire form of a scenario's source.
type SourceConfig struct {
	// Kind is "" (Bernoulli), SourceMMPP ("mmpp") or SourcePareto
	// ("pareto").
	Kind string `json:"kind"`
	// BurstRatio is the ON-state rate multiplier β > 1. A source is ON a
	// 1/β fraction of the time at β times the nominal rate (default 4).
	BurstRatio float64 `json:"burst_ratio,omitempty"`
	// BurstLen is the mean ON sojourn in node cycles, at least 1
	// (default 64). The mean OFF sojourn is BurstLen·(β−1), fixing the
	// ON fraction at 1/β.
	BurstLen float64 `json:"burst_len,omitempty"`
	// ParetoAlpha is the Pareto tail index in (1, 2], heavier tails as
	// it approaches 1 (default 1.5); used only by SourcePareto.
	ParetoAlpha float64 `json:"pareto_alpha,omitempty"`
}

// WithDefaults returns the configuration with every zero parameter
// replaced by its documented default (ratio 4, length 64, alpha 1.5). A
// configuration with an empty Kind is returned unchanged: defaults only
// make sense once a process is selected.
func (s SourceConfig) WithDefaults() SourceConfig {
	if s.Kind == "" {
		return s
	}
	if s.BurstRatio == 0 {
		s.BurstRatio = 4
	}
	if s.BurstLen == 0 {
		s.BurstLen = 64
	}
	if s.Kind == SourcePareto && s.ParetoAlpha == 0 {
		s.ParetoAlpha = 1.5
	}
	return s
}

// Validate checks the parameter ranges; the zero value is valid.
func (s SourceConfig) Validate() error {
	switch s.Kind {
	case "":
		return nil
	case SourceMMPP, SourcePareto:
	default:
		return fmt.Errorf("traffic: unknown source kind %q", s.Kind)
	}
	if !(s.BurstRatio > 1) {
		return fmt.Errorf("traffic: burst ratio %g must exceed 1", s.BurstRatio)
	}
	if !(s.BurstLen >= 1) {
		return fmt.Errorf("traffic: burst length %g must be at least 1 cycle", s.BurstLen)
	}
	if s.Kind == SourcePareto && !(s.ParetoAlpha > 1 && s.ParetoAlpha <= 2) {
		return fmt.Errorf("traffic: pareto alpha %g outside (1, 2]", s.ParetoAlpha)
	}
	return nil
}

// offLen returns the mean OFF sojourn in cycles.
func (s SourceConfig) offLen() float64 { return s.BurstLen * (s.BurstRatio - 1) }

// sojourn draws the next sojourn length (≥ 1 cycle) for the given state.
func (s SourceConfig) sojourn(on bool, rng *rand.Rand) int64 {
	mean := s.BurstLen
	if !on {
		mean = s.offLen()
	}
	if s.Kind == SourcePareto {
		// Pareto with scale xm = mean·(α−1)/α has mean exactly `mean`.
		alpha := s.ParetoAlpha
		xm := mean * (alpha - 1) / alpha
		// (0, 1]. Float64 inlines to a product; the conversion keeps it
		// from fusing into the subtraction on ports that fuse.
		u := 1 - float64(rng.Float64())
		d := int64(xm/math.Pow(u, 1/alpha) + 0.5)
		if d < 1 {
			d = 1
		}
		return d
	}
	// Geometric with success probability 1/mean has mean `mean`.
	p := 1 / mean
	if p >= 1 {
		return 1
	}
	u := 1 - float64(rng.Float64()) // (0, 1]
	d := int64(math.Floor(math.Log(u)/math.Log(1-p))) + 1
	if d < 1 {
		d = 1
	}
	return d
}

// SetSource configures the injector's per-node on-off modulation. It
// must be called before the first NodeCycle, and fails after it: by then
// the generators have been scanned ahead under the old source. Each node
// is started in its stationary state (ON with probability 1/β) using the
// node's own RNG, so a sweep stays deterministic for any worker count.
func (inj *Injector) SetSource(src SourceConfig) error {
	if err := src.Validate(); err != nil {
		return err
	}
	if inj.cycle > 0 {
		return fmt.Errorf("traffic: SetSource after %d node cycles; set the source before the first NodeCycle", inj.cycle)
	}
	if src.Kind == "" {
		inj.burst = nil
		return nil
	}
	if inj.replay != nil {
		return fmt.Errorf("traffic: trace replay cannot be combined with a %s source", src.Kind)
	}
	for i, p := range inj.probs {
		if p*src.BurstRatio > 1 {
			return fmt.Errorf("traffic: node %d ON rate %g exceeds one packet per cycle (burst ratio %g)",
				i, inj.rates[i]*src.BurstRatio, src.BurstRatio)
		}
	}
	for i := range inj.nodes {
		if inj.probs[i] == 0 {
			continue
		}
		nd := &inj.nodes[i]
		nd.on = nd.rng.Float64() < 1/src.BurstRatio
		// The per-cycle model counts the sojourn down before each cycle's
		// trial, so the initial state lasts one cycle less than drawn.
		nd.until = src.sojourn(nd.on, &nd.rng) - 1
	}
	inj.burst = &src
	return nil
}

// StartCapture attaches an injection-trace sink: every generated packet
// is recorded as a trace event, and the trace header is stamped with the
// injector's mesh shape and packet size. The same sink must not be
// shared across concurrent runs.
func (inj *Injector) StartCapture(t *trace.Injection) {
	t.Width = inj.cfg.Width
	t.Height = inj.cfg.Height
	t.PacketSize = inj.cfg.PacketSize
	t.Cycles = 0
	t.Events = t.Events[:0]
	inj.capture = t
}

// replayState holds a trace being replayed.
type replayState struct {
	events []trace.InjectionEvent
	pos    int
}

// NewReplayInjector builds an injector that re-injects the recorded
// events of tr at their recorded node cycles, in recorded order — no
// randomness is consumed, so a replay is bit-identical to its capture
// run. Runs longer than the trace simply stop injecting when the events
// are exhausted. Per-node rates and the destination pattern are derived
// from the trace so rate monitors and capacity estimates keep working.
func NewReplayInjector(cfg noc.Config, tr *trace.Injection) (*Injector, error) {
	rates, err := ReplayRates(cfg, tr)
	if err != nil {
		return nil, err
	}
	pattern, err := NewMatrixPattern(cfg, tr.Matrix())
	if err != nil {
		return nil, err
	}
	inj := &Injector{
		cfg:     cfg,
		pattern: pattern,
		rates:   rates,
		probs:   make([]float64, cfg.Nodes()),
		replay:  &replayState{events: tr.Events},
	}
	return inj, nil
}

// ReplayRates checks tr against cfg and returns the per-node rates (flits
// per node per node cycle) a replay of it offers: the rate vector of
// NewReplayInjector(cfg, tr).
func ReplayRates(cfg noc.Config, tr *trace.Injection) ([]float64, error) {
	if tr == nil {
		return nil, fmt.Errorf("traffic: nil injection trace")
	}
	if err := tr.Validate(cfg); err != nil {
		return nil, err
	}
	rates := make([]float64, cfg.Nodes())
	for _, e := range tr.Events {
		rates[e.Src] += float64(cfg.PacketSize)
	}
	for i := range rates {
		rates[i] /= float64(tr.Cycles)
	}
	return rates, nil
}
