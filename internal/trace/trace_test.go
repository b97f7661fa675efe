package trace

import (
	"strings"
	"testing"

	"repro/internal/noc"
)

func rec(id int64, src, dst noc.NodeID, create, inject, arrive int64, delay float64) Record {
	return Record{
		ID: id, Src: src, Dst: dst, Hops: 3,
		CreateCycle: create, InjectCycle: inject, ArriveCycle: arrive, DelayNs: delay,
	}
}

func TestRecordDerivedMetrics(t *testing.T) {
	r := rec(1, 0, 5, 100, 110, 160, 60)
	if r.LatencyCycles() != 60 {
		t.Errorf("latency = %d", r.LatencyCycles())
	}
	if r.QueueCycles() != 10 {
		t.Errorf("queueing = %d", r.QueueCycles())
	}
}

func TestLogCapacityAndDropping(t *testing.T) {
	l := NewLog(2)
	for i := int64(0); i < 5; i++ {
		l.Add(rec(i, 0, 1, 0, 1, 2, 1))
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
	if l.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", l.Dropped())
	}
}

func TestNewLogDefaultCapacity(t *testing.T) {
	l := NewLog(0)
	l.Add(rec(1, 0, 1, 0, 1, 2, 1))
	if l.Len() != 1 || l.Dropped() != 0 {
		t.Error("default-capacity log misbehaves")
	}
}

func TestAddPacket(t *testing.T) {
	l := NewLog(10)
	p := &noc.Packet{ID: 7, Src: 2, Dst: 9, Hops: 4, CreateCycle: 5, InjectCycle: 6, ArriveCycle: 50}
	l.AddPacket(p, 45.5)
	r := l.records[0]
	if r.ID != 7 || r.Src != 2 || r.Dst != 9 || r.Hops != 4 || r.DelayNs != 45.5 {
		t.Errorf("record %+v", r)
	}
}

func TestWriteCSV(t *testing.T) {
	l := NewLog(10)
	l.Add(rec(1, 0, 5, 100, 110, 160, 60))
	var sb strings.Builder
	if err := l.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,src,dst") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], ",60,") { // latency column
		t.Errorf("row = %q", lines[1])
	}
}

func TestFlowsAggregation(t *testing.T) {
	l := NewLog(100)
	// Two flows: 0->5 (3 packets), 1->2 (1 packet).
	l.Add(rec(1, 0, 5, 0, 2, 10, 10))
	l.Add(rec(2, 0, 5, 5, 6, 25, 20))
	l.Add(rec(3, 0, 5, 9, 12, 39, 30))
	l.Add(rec(4, 1, 2, 0, 1, 8, 8))
	flows := l.Flows()
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
	top := flows[0]
	if top.Src != 0 || top.Dst != 5 || top.Packets != 3 {
		t.Fatalf("top flow %+v", top)
	}
	if top.MeanDelayNs != 20 {
		t.Errorf("mean delay = %g, want 20", top.MeanDelayNs)
	}
	if top.MaxDelayNs != 30 {
		t.Errorf("max delay = %g, want 30", top.MaxDelayNs)
	}
	if top.MeanLatency != 20 { // latencies 10, 20, 30
		t.Errorf("mean latency = %g", top.MeanLatency)
	}
	if top.MeanQueueing != 2 { // queueing 2, 1, 3
		t.Errorf("mean queueing = %g", top.MeanQueueing)
	}
}

func TestFlowsSortStability(t *testing.T) {
	l := NewLog(10)
	l.Add(rec(1, 3, 4, 0, 1, 5, 5))
	l.Add(rec(2, 1, 2, 0, 1, 5, 5))
	flows := l.Flows()
	// Equal packet counts: sorted by src then dst.
	if flows[0].Src != 1 || flows[1].Src != 3 {
		t.Errorf("flow order %v", flows)
	}
}

func TestWriteFlowsCSV(t *testing.T) {
	l := NewLog(10)
	l.Add(rec(1, 0, 5, 0, 2, 10, 10))
	var sb strings.Builder
	if err := l.WriteFlowsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "src,dst,hops,packets") {
		t.Error("missing flows header")
	}
}
