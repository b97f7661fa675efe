package sweep

import (
	"context"
	"testing"

	"repro/nocsim"
	"repro/nocsim/manifest"
)

// baseline is the three-policy baseline manifest and its results, run
// once and shared by the figure tests (Figs. 2/4/6 and the summary are
// views of the same sweep, as in the paper).
var baseline struct {
	m       *manifest.Manifest
	results []nocsim.Result
}

func getBaseline(t *testing.T) (*manifest.Manifest, []nocsim.Result) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	if baseline.m == nil {
		m, err := Plan(context.Background(), "baseline", Options{Quick: true, Points: 3})
		if err != nil {
			t.Fatal(err)
		}
		results, _, err := manifest.Run(context.Background(), m, 0, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		baseline.m, baseline.results = m, results
	}
	return baseline.m, baseline.results
}

// baselineTable renders the baseline figure and returns its table id.
func baselineTable(t *testing.T, id string) Table {
	t.Helper()
	tables, err := Render(getBaseline(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		if tab.ID == id {
			checkTables(t, []Table{tab}, id)
			return tab
		}
	}
	t.Fatalf("baseline rendered no table %s", id)
	return Table{}
}

// inMemory plans, runs and renders one figure in this process with
// nothing persisted: Generate on the zero Executor.
func inMemory(ctx context.Context, fig string, o Options) ([]Table, error) {
	tables, _, err := Generate(ctx, fig, o, Executor{})
	return tables, err
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
	baselineTable(t, "fig2a")
	// RMSD delay must be at or above the No-DVFS delay at every rate.
	for _, row := range baselineTable(t, "fig2b").Rows {
		if row[2] < row[1]*0.9 {
			t.Errorf("RMSD delay %.1f below No-DVFS %.1f at rate %.2f", row[2], row[1], row[0])
		}
	}
}

func TestFig4Tables(t *testing.T) {
	baselineTable(t, "fig4b")
	// RMSD frequency ≤ DMSD frequency at every rate (paper Fig. 4a).
	for _, row := range baselineTable(t, "fig4a").Rows {
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
	// Power ordering at every rate: RMSD ≤ DMSD ≤ No-DVFS (tolerances for
	// sampling noise).
	for _, row := range baselineTable(t, "fig6").Rows {
		rate, pn, pr, pd := row[0], row[1], row[2], row[3]
		if pr > pd*1.05 || pd > pn*1.05 {
			t.Errorf("power ordering violated at rate %.2f: %g/%g/%g", rate, pn, pr, pd)
		}
	}
}

func TestSummaryTable(t *testing.T) {
	for _, row := range baselineTable(t, "summary").Rows {
		rmsdSave, dmsdSave := row[1], row[2]
		if rmsdSave < dmsdSave-2 {
			t.Errorf("RMSD saving %.1f%% below DMSD %.1f%% at rate %.2f", rmsdSave, dmsdSave, row[0])
		}
	}
}

func TestComparisonTablesHelper(t *testing.T) {
	m, results := getBaseline(t)
	tabs := comparisonTables("figX", "lbl", m.Panels[0].Grid, results)
	checkTables(t, tabs, "figX_lbl_delay", "figX_lbl_power")
}

func TestPIStepTransient(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := inMemory(context.Background(), "pi", Options{Quick: true, Points: 2})
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
