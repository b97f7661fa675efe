// Package trace records per-packet lifecycle events from a simulation —
// creation, injection, arrival, hops, latency and delay — and exports them
// as CSV or aggregated per-flow statistics. It is the repo's counterpart
// of Booksim's watch/trace facilities: the paper's methodology (importing
// simulated activity into the power flow, measuring per-packet delays at
// the receivers) relies on exactly this kind of per-packet visibility.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/noc"
)

// Record is one packet's lifecycle.
type Record struct {
	ID          int64
	Src, Dst    noc.NodeID
	Hops        int
	CreateCycle int64
	InjectCycle int64
	ArriveCycle int64
	// DelayNs is the end-to-end delay in nanoseconds (real time).
	DelayNs float64
}

// LatencyCycles returns the packet latency in network clock cycles,
// including source-queue time.
func (r Record) LatencyCycles() int64 { return r.ArriveCycle - r.CreateCycle }

// QueueCycles returns the cycles spent waiting in the source queue before
// the head flit entered the network.
func (r Record) QueueCycles() int64 { return r.InjectCycle - r.CreateCycle }

// Log collects packet records up to a capacity; beyond it, new records
// are dropped and counted, keeping memory bounded on long runs.
type Log struct {
	records []Record
	cap     int
	dropped int64
}

// NewLog creates a log holding at most capacity records (<=0 means a
// default of 1<<20).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Log{cap: capacity}
}

// Add records one packet if capacity remains.
func (l *Log) Add(r Record) {
	if len(l.records) >= l.cap {
		l.dropped++
		return
	}
	l.records = append(l.records, r)
}

// AddPacket converts a delivered noc.Packet into a Record.
func (l *Log) AddPacket(p *noc.Packet, delayNs float64) {
	l.Add(Record{
		ID:          p.ID,
		Src:         p.Src,
		Dst:         p.Dst,
		Hops:        p.Hops,
		CreateCycle: p.CreateCycle,
		InjectCycle: p.InjectCycle,
		ArriveCycle: p.ArriveCycle,
		DelayNs:     delayNs,
	})
}

// Len returns the number of stored records.
func (l *Log) Len() int { return len(l.records) }

// Dropped returns the number of records discarded after the log filled.
func (l *Log) Dropped() int64 { return l.dropped }

// WriteCSV dumps the log with a header row.
func (l *Log) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "id,src,dst,hops,create_cycle,inject_cycle,arrive_cycle,latency_cycles,queue_cycles,delay_ns"); err != nil {
		return err
	}
	for _, r := range l.records {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f\n",
			r.ID, r.Src, r.Dst, r.Hops, r.CreateCycle, r.InjectCycle,
			r.ArriveCycle, r.LatencyCycles(), r.QueueCycles(), r.DelayNs); err != nil {
			return err
		}
	}
	return nil
}

// FlowStat aggregates one source-destination flow.
type FlowStat struct {
	Src, Dst     noc.NodeID
	Packets      int64
	MeanDelayNs  float64
	MaxDelayNs   float64
	MeanLatency  float64
	MeanQueueing float64
	Hops         int
}

// Flows aggregates the log per (src, dst) pair, sorted by descending
// packet count.
func (l *Log) Flows() []FlowStat {
	type key struct{ s, d noc.NodeID }
	agg := make(map[key]*FlowStat)
	for _, r := range l.records {
		k := key{r.Src, r.Dst}
		st, ok := agg[k]
		if !ok {
			st = &FlowStat{Src: r.Src, Dst: r.Dst, Hops: r.Hops}
			agg[k] = st
		}
		st.Packets++
		n := float64(st.Packets)
		st.MeanDelayNs += (r.DelayNs - st.MeanDelayNs) / n
		st.MeanLatency += (float64(r.LatencyCycles()) - st.MeanLatency) / n
		st.MeanQueueing += (float64(r.QueueCycles()) - st.MeanQueueing) / n
		if r.DelayNs > st.MaxDelayNs {
			st.MaxDelayNs = r.DelayNs
		}
	}
	out := make([]FlowStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// WriteFlowsCSV dumps the per-flow aggregation.
func (l *Log) WriteFlowsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "src,dst,hops,packets,mean_delay_ns,max_delay_ns,mean_latency_cycles,mean_queue_cycles"); err != nil {
		return err
	}
	for _, f := range l.Flows() {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%.3f,%.3f,%.2f,%.2f\n",
			f.Src, f.Dst, f.Hops, f.Packets, f.MeanDelayNs, f.MaxDelayNs,
			f.MeanLatency, f.MeanQueueing); err != nil {
			return err
		}
	}
	return nil
}
