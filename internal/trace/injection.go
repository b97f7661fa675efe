package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/noc"
)

// InjectionEvent is one recorded packet generation: at node cycle Cycle,
// source Src offered a packet for Dst (Dim is the O1TURN dimension order,
// 0 for deterministic routing). Events carry everything the injector
// decided by random draw, so replaying them reproduces the source run's
// packet stream exactly.
type InjectionEvent struct {
	Cycle int64      `json:"cycle"`
	Src   noc.NodeID `json:"src"`
	Dst   noc.NodeID `json:"dst"`
	Dim   uint8      `json:"dim,omitempty"`
}

// Injection is a per-source injection trace: the golden file format of
// the capture→replay loop. The header pins the mesh shape and packet
// size the trace was captured under, so a replay against a different
// topology fails loudly instead of silently skewing.
type Injection struct {
	// Width, Height and PacketSize are the capture run's mesh shape and
	// packet size; a replay validates its config against them.
	Width      int `json:"width"`
	Height     int `json:"height"`
	PacketSize int `json:"packet_size"`
	// Cycles is the number of node cycles the capture covered (events
	// all have Cycle < Cycles once the capture run finishes).
	Cycles int64 `json:"cycles"`
	// Events are the recorded generations in injection order: ascending
	// by cycle, and within one cycle in ascending source order (the
	// order the injector visits nodes).
	Events []InjectionEvent `json:"events"`
}

// Validate checks the trace is internally consistent and matches cfg.
func (t *Injection) Validate(cfg noc.Config) error {
	if t.Width != cfg.Width || t.Height != cfg.Height {
		return fmt.Errorf("trace: captured on a %dx%d mesh, config is %dx%d",
			t.Width, t.Height, cfg.Width, cfg.Height)
	}
	if t.PacketSize != cfg.PacketSize {
		return fmt.Errorf("trace: captured with packet size %d, config uses %d",
			t.PacketSize, cfg.PacketSize)
	}
	if t.Cycles <= 0 {
		return fmt.Errorf("trace: non-positive cycle count %d", t.Cycles)
	}
	nodes := noc.NodeID(cfg.Nodes())
	prev := int64(-1)
	prevSrc := noc.NodeID(-1)
	for i, e := range t.Events {
		if e.Cycle < 0 || e.Cycle >= t.Cycles {
			return fmt.Errorf("trace: event %d at cycle %d outside [0, %d)", i, e.Cycle, t.Cycles)
		}
		if e.Cycle < prev || (e.Cycle == prev && e.Src < prevSrc) {
			return fmt.Errorf("trace: event %d out of injection order", i)
		}
		if e.Src < 0 || e.Src >= nodes || e.Dst < 0 || e.Dst >= nodes {
			return fmt.Errorf("trace: event %d references node outside the mesh", i)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("trace: event %d is self traffic at node %d", i, e.Src)
		}
		prev, prevSrc = e.Cycle, e.Src
	}
	return nil
}

// MeanRate returns the trace's average offered rate in flits per node
// per node cycle — the replayed counterpart of Injector.MeanRate.
func (t *Injection) MeanRate() float64 {
	nodes := t.Width * t.Height
	if t.Cycles == 0 || nodes == 0 {
		return 0
	}
	flits := float64(len(t.Events)) * float64(t.PacketSize)
	return flits / float64(t.Cycles) / float64(nodes)
}

// Matrix returns the packet-count traffic matrix of the trace, indexed
// by mesh node id: the destination mix of a replay injector and the
// matrix of a trace scenario's capacity bound.
func (t *Injection) Matrix() [][]float64 {
	n := t.Width * t.Height
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for _, e := range t.Events {
		m[e.Src][e.Dst]++
	}
	return m
}

// WriteJSON writes the trace as indented JSON (the golden-file form).
func (t *Injection) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// ReadInjection parses a trace previously written with WriteJSON.
func ReadInjection(r io.Reader) (*Injection, error) {
	var t Injection
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decoding injection trace: %w", err)
	}
	return &t, nil
}

// SaveInjection writes the trace to path, creating or truncating it.
func SaveInjection(path string, t *Injection) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadInjection reads a trace file written with SaveInjection.
func LoadInjection(path string) (*Injection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadInjection(f)
}
