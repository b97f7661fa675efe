package sweep

import (
	"context"
	"math"
	"testing"
)

func ablOpts() Options { return Options{Quick: true, Points: 2, Seed: 1} }

func TestAblationControlPeriod(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := inMemory(context.Background(), "period", ablOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "abl_period")
	// Across the swept periods the steady-state delay must stay within a
	// reasonable band of the target (the Sec. IV sufficiency claim).
	for _, row := range tables[0].Rows {
		if errPct := row[2]; math.Abs(errPct) > 50 {
			t.Errorf("period %.0f: delay error %.1f%%, want |err| <= 50%%", row[0], errPct)
		}
	}
}

func TestAblationGains(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := inMemory(context.Background(), "gains", ablOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "abl_gains")
	// The paper's gains must track the target reasonably.
	found := false
	for _, row := range tables[0].Rows {
		if math.Abs(row[0]-0.025) < 1e-9 {
			found = true
			if math.Abs(row[3]) > 40 {
				t.Errorf("paper gains delay error %.1f%%", row[3])
			}
		}
	}
	if !found {
		t.Error("paper gains missing from ablation")
	}
}

func TestAblationDiscreteLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := inMemory(context.Background(), "levels", ablOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "abl_levels")
	rows := tables[0].Rows
	if rows[0][0] != 0 {
		t.Fatal("first row should be continuous actuation")
	}
	// Discrete actuation snaps frequencies *up*, so power may rise
	// slightly and delay may fall slightly — but both must stay in the
	// same ballpark as continuous actuation (footnote 2).
	contR, contD := rows[0][2], rows[0][4]
	for _, row := range rows[1:] {
		if row[2] < contR*0.7 || row[2] > contR*1.6 {
			t.Errorf("levels=%v: RMSD power %.1f far from continuous %.1f", row[0], row[2], contR)
		}
		if row[4] < contD*0.7 || row[4] > contD*1.6 {
			t.Errorf("levels=%v: DMSD power %.1f far from continuous %.1f", row[0], row[4], contD)
		}
	}
}

func TestAblationRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := inMemory(context.Background(), "routing", ablOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "abl_routing")
	if len(tables[0].Rows) != 3 {
		t.Fatalf("want 3 routing rows, got %d", len(tables[0].Rows))
	}
	// The conclusion must survive every routing algorithm: RMSD power
	// below No-DVFS, DMSD delay below RMSD delay.
	for _, row := range tables[0].Rows {
		routing, pn, pr, dr, pd, dd := row[0], row[2], row[3], row[4], row[5], row[6]
		if pr >= pn {
			t.Errorf("routing %v: RMSD power %.1f not below No-DVFS %.1f", routing, pr, pn)
		}
		if pd < pr*0.95 {
			t.Errorf("routing %v: DMSD power %.1f well below RMSD %.1f", routing, pd, pr)
		}
		if dd >= dr {
			t.Errorf("routing %v: DMSD delay %.1f not below RMSD %.1f", routing, dd, dr)
		}
	}
}

func TestPowerBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := inMemory(context.Background(), "breakdown", ablOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "power_breakdown")
	for _, row := range tables[0].Rows {
		total, sw, ck, lk := row[1], row[2], row[3], row[4]
		if math.Abs(total-(sw+ck+lk)) > total*0.02 {
			t.Errorf("policy %v: breakdown %g+%g+%g != total %g", row[0], sw, ck, lk, total)
		}
		if sw <= 0 || ck <= 0 || lk <= 0 {
			t.Errorf("policy %v: non-positive component in breakdown", row[0])
		}
	}
	// DVFS cuts the clock component hardest (V²F): the RMSD clock power
	// must be well below the No-DVFS clock power.
	rows := tables[0].Rows
	if rows[1][3] > rows[0][3]*0.6 {
		t.Errorf("RMSD clock power %.2f not well below No-DVFS %.2f", rows[1][3], rows[0][3])
	}
}
