package sweep

import (
	"context"
	"testing"
)

// bundle is computed once and shared by the figure tests (Figs. 2/4/6 are
// views of the same sweep, as in the paper).
var sharedBundle *Bundle

func getBundle(t *testing.T) *Bundle {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	if sharedBundle == nil {
		b, err := BaselineBundle(context.Background(), Options{Quick: true, Points: 3})
		if err != nil {
			t.Fatal(err)
		}
		sharedBundle = b
	}
	return sharedBundle
}

func checkTables(t *testing.T, tables []Table, wantIDs ...string) {
	t.Helper()
	ids := map[string]bool{}
	for _, tab := range tables {
		ids[tab.ID] = true
		if len(tab.Rows) == 0 {
			t.Errorf("table %s has no rows", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("table %s has ragged rows", tab.ID)
			}
		}
	}
	for _, id := range wantIDs {
		if !ids[id] {
			t.Errorf("missing table %s (have %v)", id, ids)
		}
	}
}

func TestFig2Tables(t *testing.T) {
	b := getBundle(t)
	tables := Fig2(b)
	checkTables(t, tables, "fig2a", "fig2b")
	// RMSD delay must be at or above the No-DVFS delay at every rate.
	del := tables[1]
	for _, row := range del.Rows {
		if row[2] < row[1]*0.9 {
			t.Errorf("RMSD delay %.1f below No-DVFS %.1f at rate %.2f", row[2], row[1], row[0])
		}
	}
}

func TestFig4Tables(t *testing.T) {
	b := getBundle(t)
	tables := Fig4(b)
	checkTables(t, tables, "fig4a", "fig4b")
	// RMSD frequency ≤ DMSD frequency at every rate (paper Fig. 4a).
	freq := tables[0]
	for _, row := range freq.Rows {
		if row[2] > row[3]+0.02 {
			t.Errorf("RMSD freq %.3f above DMSD %.3f at rate %.2f", row[2], row[3], row[0])
		}
	}
}

func TestFig5Table(t *testing.T) {
	tables := Fig5(Options{Quick: true})
	checkTables(t, tables, "fig5")
	rows := tables[0].Rows
	if rows[0][0] != 0.56 || rows[len(rows)-1][0] != 0.9 {
		t.Errorf("Fig5 voltage endpoints %g..%g", rows[0][0], rows[len(rows)-1][0])
	}
	// Monotone frequency.
	for i := 1; i < len(rows); i++ {
		if rows[i][1] <= rows[i-1][1] {
			t.Error("Fig5 frequency not increasing")
		}
	}
}

func TestFig6Table(t *testing.T) {
	b := getBundle(t)
	tables := Fig6(b)
	checkTables(t, tables, "fig6")
	// Power ordering at every rate: RMSD ≤ DMSD ≤ No-DVFS (tolerances for
	// sampling noise).
	for _, row := range tables[0].Rows {
		rate, pn, pr, pd := row[0], row[1], row[2], row[3]
		if pr > pd*1.05 || pd > pn*1.05 {
			t.Errorf("power ordering violated at rate %.2f: %g/%g/%g", rate, pn, pr, pd)
		}
	}
}

func TestSummaryTable(t *testing.T) {
	b := getBundle(t)
	tables := Summary(b)
	checkTables(t, tables, "summary")
	for _, row := range tables[0].Rows {
		rmsdSave, dmsdSave := row[1], row[2]
		if rmsdSave < dmsdSave-2 {
			t.Errorf("RMSD saving %.1f%% below DMSD %.1f%% at rate %.2f", rmsdSave, dmsdSave, row[0])
		}
	}
}

func TestComparisonTablesHelper(t *testing.T) {
	b := getBundle(t)
	tabs := comparisonTables("figX", "lbl", b.Grid(), b.Results)
	checkTables(t, tabs, "figX_lbl_delay", "figX_lbl_power")
}

func TestPIStepTransient(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Tables(context.Background(), "pi", Options{Quick: true, Points: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "pi_step")
	rows := tables[0].Rows
	if len(rows) < 5 {
		t.Fatalf("transient too short: %d samples", len(rows))
	}
	// The trace starts at FMax (cold start) and must descend: the final
	// frequency is below the first.
	first, last := rows[0][1], rows[len(rows)-1][1]
	if first < 0.95 {
		t.Errorf("transient does not start near FMax: %.3f GHz", first)
	}
	if last >= first {
		t.Errorf("PI loop did not slow the clock: %.3f -> %.3f GHz", first, last)
	}
	// Time must advance strictly.
	for i := 1; i < len(rows); i++ {
		if rows[i][0] <= rows[i-1][0] {
			t.Fatal("trace time not increasing")
		}
	}
}

func TestNearestIdx(t *testing.T) {
	loads := []float64{0.1, 0.2, 0.3}
	if got := nearestIdx(loads, 0.19); got != 1 {
		t.Errorf("nearestIdx = %d, want 1", got)
	}
	if got := nearestIdx(nil, 0.2); got != -1 {
		t.Errorf("nearestIdx(nil) = %d, want -1", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio = %g", got)
	}
	if got := ratio(1, 0); got == got { // NaN check
		t.Error("ratio by zero should be NaN")
	}
}
