package repro_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/volt"
	"repro/nocsim"
)

// TestEndToEndPipelineQuick exercises the whole stack once: calibration,
// the three policies, figure generation, claim checking and plotting —
// the quick-mode equivalent of `cmd/report`.
func TestEndToEndPipelineQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := sweep.Options{Quick: true, Points: 6, Seed: 1}
	tables, _, err := sweep.Generate(context.Background(), "baseline", o, sweep.Executor{})
	if err != nil {
		t.Fatal(err)
	}
	tables = append(tables, sweep.Fig5(o)...)

	verdicts := report.Check(report.BaselineClaims(), tables)
	failed := 0
	for _, v := range verdicts {
		if v.Err != nil {
			t.Errorf("claim %s errored: %v", v.Claim.ID, v.Err)
			continue
		}
		if !v.Pass {
			failed++
			t.Logf("claim %s deviated: measured %g outside [%g, %g]",
				v.Claim.ID, v.Measured, v.Claim.Lo, v.Claim.Hi)
		}
	}
	// Quick mode is noisy; tolerate at most one deviation of the nine
	// baseline claims, and require the anomaly claim itself to hold.
	if failed > 1 {
		t.Errorf("%d/%d baseline claims deviated in quick mode", failed, len(verdicts))
	}
	for _, v := range verdicts {
		if v.Claim.ID == "fig2b-nonmonotonic" && !v.Pass {
			t.Error("the headline anomaly claim failed")
		}
	}

	// The figure tables must render and plot without error.
	var sb strings.Builder
	for i := range tables {
		if err := tables[i].Format(&sb); err != nil {
			t.Fatal(err)
		}
	}
	del := tables[1]
	plot := sweep.AsciiPlot(del.Title, 40, 10,
		sweep.Series{Name: "nodvfs", Marker: '*', X: column(t, del, "rate"), Y: column(t, del, "nodvfs_delay_ns")},
		sweep.Series{Name: "rmsd", Marker: 'o', X: column(t, del, "rate"), Y: column(t, del, "rmsd_delay_ns")})
	if !strings.Contains(plot, "*") {
		t.Error("plot rendered no points")
	}
}

// column returns the values of the table's named column.
func column(t *testing.T, tab sweep.Table, name string) []float64 {
	t.Helper()
	for i, c := range tab.Columns {
		if c == name {
			out := make([]float64, len(tab.Rows))
			for r, row := range tab.Rows {
				out[r] = row[i]
			}
			return out
		}
	}
	t.Fatalf("table %s has no column %q", tab.ID, name)
	return nil
}

// TestSimulatorAgreesWithQueueingModelOnShape compares the cycle-accurate
// simulator against the analytic M/M/1 model on the two qualitative
// predictions that matter: the RMSD delay peaks at λmin, and the RMSD
// delay decreases with load inside the scaling range.
func TestSimulatorAgreesWithQueueingModelOnShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Analytic prediction.
	qm := queueing.New()
	const rho = 0.9
	want := rho * volt.FMin / volt.FMax // ρ·(333 MHz / 1 GHz)
	lminFrac := qm.LambdaMin(rho) / qm.MaxArrivalRate()
	if math.Abs(lminFrac-want) > 1e-9 {
		t.Fatalf("analytic λmin fraction %g, want %g", lminFrac, want)
	}

	// Simulation: delays at ~0.5 λmin, λmin, and 2 λmin.
	s := nocsim.Scenario{Pattern: "uniform", Quick: true}
	cal, err := nocsim.Calibrate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	lmin := cal.LambdaMax / 3
	delay := func(rate float64) float64 {
		p := s
		p.Policy, p.Load, p.Calibration = nocsim.RMSD, rate, &cal
		res, err := nocsim.Run(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgDelayNs
	}
	below := delay(0.5 * lmin)
	peak := delay(lmin)
	above := delay(2 * lmin)
	if !(peak > below && peak > above) {
		t.Errorf("simulated peak not at λmin: d(0.5λmin)=%.0f d(λmin)=%.0f d(2λmin)=%.0f",
			below, peak, above)
	}
}

// TestPacketLogThroughCoreScenario verifies the trace plumbing end to end
// through the public experiment API.
func TestPacketLogThroughCoreScenario(t *testing.T) {
	plog := nocsim.NewPacketLog(1 << 16)
	s := nocsim.Scenario{Pattern: "neighbor", Load: 0.2, Quick: true, PacketLog: plog}
	res, err := nocsim.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if int64(plog.Len()) != res.Packets {
		t.Fatalf("log %d records vs %d measured packets", plog.Len(), res.Packets)
	}
	// Neighbor traffic: every flow is a single-hop (x+1) pair except the
	// wraparound column, which crosses the row. Check hops per flow match
	// the pattern definition.
	var buf bytes.Buffer
	if err := plog.WriteFlowsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatal("the log holds no flows")
	}
	cfg := noc.DefaultConfig()
	for _, row := range rows[1:] { // src,dst,hops,...
		var f [3]int
		for i := range f {
			if f[i], err = strconv.Atoi(row[i]); err != nil {
				t.Fatal(err)
			}
		}
		if want := cfg.Distance(noc.NodeID(f[0]), noc.NodeID(f[1])); f[2] != want {
			t.Fatalf("flow %d->%d hops %d, want %d", f[0], f[1], f[2], want)
		}
	}
}
