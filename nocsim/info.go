package nocsim

import (
	"io"

	"repro/internal/apps"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// AppInfo describes one of the built-in multimedia workloads (the
// paper's Fig. 9 communication graphs).
type AppInfo struct {
	// Name is the identifier Scenario.App accepts.
	Name string `json:"name"`
	// Width and Height are the mesh the application is mapped on.
	Width  int `json:"width"`
	Height int `json:"height"`
	// Blocks and Edges count the graph's computation vertices and
	// communication arcs.
	Blocks int `json:"blocks"`
	Edges  int `json:"edges"`
	// PacketsPerFrame is the total traffic demand per encoded frame.
	PacketsPerFrame float64 `json:"packets_per_frame"`
}

// Apps lists the built-in multimedia workloads: the H.264 encoder (4x4
// mesh) and the Video Conference Encoder (5x5 mesh).
func Apps() []AppInfo {
	var infos []AppInfo
	for _, a := range apps.Apps() {
		infos = append(infos, AppInfo{
			Name:            a.Name,
			Width:           a.Width,
			Height:          a.Height,
			Blocks:          len(a.Blocks),
			Edges:           len(a.Edges),
			PacketsPerFrame: a.TotalPacketsPerFrame(),
		})
	}
	return infos
}

// PaperPatterns lists the four synthetic patterns of the paper's Fig. 7
// in presentation order: tornado, bitcomp, transpose, neighbor.
func PaperPatterns() []string { return traffic.PaperPatterns() }

// PacketLog records the lifecycle of every packet delivered during a
// run's measurement window. Attach one as Scenario.PacketLog; it is a
// runtime object, not part of the scenario's wire form.
type PacketLog struct {
	log *trace.Log
}

// NewPacketLog returns a log bounded to capacity records (0 means a
// generous default); packets beyond the bound are counted as dropped.
func NewPacketLog(capacity int) *PacketLog {
	return &PacketLog{log: trace.NewLog(capacity)}
}

// Len returns the number of packet records captured.
func (l *PacketLog) Len() int { return l.log.Len() }

// Dropped returns how many packets were discarded because the log was
// full.
func (l *PacketLog) Dropped() int64 { return l.log.Dropped() }

// WriteCSV writes one row per recorded packet.
func (l *PacketLog) WriteCSV(w io.Writer) error { return l.log.WriteCSV(w) }

// WriteFlowsCSV writes one row per source-destination flow, aggregated
// over the recorded packets.
func (l *PacketLog) WriteFlowsCSV(w io.Writer) error { return l.log.WriteFlowsCSV(w) }

// Trace is a recorded injection trace: every packet a run generated,
// with its injection cycle, source, destination and (under o1turn
// routing) the dimension order it drew. Capture one through
// Scenario.TraceCapture, persist it with Save or WriteJSON, and replay it
// bit-identically by naming the file in Scenario.TraceRef. Like PacketLog
// it is a runtime object, not part of the scenario wire form.
type Trace struct {
	inj trace.Injection
}

// NewTrace returns an empty trace sink for Scenario.TraceCapture.
func NewTrace() *Trace { return &Trace{} }

// Len returns the number of recorded injection events (packets).
func (t *Trace) Len() int { return len(t.inj.Events) }

// Cycles returns the recorded run length in node cycles.
func (t *Trace) Cycles() int64 { return t.inj.Cycles }

// MeanRate returns the trace's mean injection rate in flits per node
// per node cycle.
func (t *Trace) MeanRate() float64 { return t.inj.MeanRate() }

// WriteJSON writes the trace wire form.
func (t *Trace) WriteJSON(w io.Writer) error { return t.inj.WriteJSON(w) }

// Save writes the trace to path — the file Scenario.TraceRef replays.
func (t *Trace) Save(path string) error { return trace.SaveInjection(path, &t.inj) }

// LoadTrace reads a trace file saved with Save, for inspection; Run
// loads trace files itself from Scenario.TraceRef.
func LoadTrace(path string) (*Trace, error) {
	tr, err := trace.LoadInjection(path)
	if err != nil {
		return nil, err
	}
	return &Trace{inj: *tr}, nil
}
