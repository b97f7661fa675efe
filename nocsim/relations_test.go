package nocsim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// Metamorphic relations: pairs of scenarios that differ in a way the
// model must not see, so their Metrics must be equal — every field, power
// included, compared with ==. Neither run's numbers are known in
// advance; only that the two agree.

// relationCase is one generated scenario of the relation tests, with
// the generator that drew it for the relation to draw from further.
type relationCase struct {
	name string
	s    Scenario
	rng  *rand.Rand
}

// relationCases generates the scenarios the relations run on: every seed
// × {uniform, transpose, tornado} × {4x4, 5x5}, each with a load drawn
// from its own seed, in quick windows.
func relationCases() []relationCase {
	var out []relationCase
	for _, seed := range []int64{1, 3, 7, 11, 13, 17} {
		for _, pattern := range []string{"uniform", "transpose", "tornado"} {
			for _, k := range []int{4, 5} {
				rng := rand.New(rand.NewSource(seed*100 + int64(k)))
				s := Scenario{
					Mesh:    Mesh{Width: k, Height: k},
					Pattern: pattern,
					Load:    0.08 + 0.17*rng.Float64(),
					Quick:   true,
					Seed:    seed,
				}
				out = append(out, relationCase{fmt.Sprintf("%s/%dx%d/seed%d", pattern, k, k, seed), s, rng})
			}
		}
	}
	return out
}

// runRelation runs both scenarios of one relation and reports any
// difference in their Metrics.
func runRelation(t *testing.T, name string, a, b Scenario) {
	t.Helper()
	ra, err := Run(context.Background(), a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rb, err := Run(context.Background(), b)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ra.Metrics != rb.Metrics {
		t.Errorf("%s:\n  %+v\n  %+v", name, ra.Metrics, rb.Metrics)
	}
	if ra.Packets == 0 {
		t.Errorf("%s measured no packets", name)
	}
}

// TestRelationWholeMeshIslandAtFullSpeed: an island that covers the whole
// mesh at speed 1 divides no clock, so it is no island at all. Half the
// cases run RMSD with λmax above the load, so the global frequency moves
// under the island.
func TestRelationWholeMeshIslandAtFullSpeed(t *testing.T) {
	for _, c := range relationCases() {
		if c.rng.Intn(2) == 1 {
			c.s.Policy = RMSD
			c.s.Calibration = &Calibration{LambdaMax: min(1, c.s.Load*(1.2+0.8*c.rng.Float64()))}
		}
		with := c.s
		with.Islands = []Island{{X0: 0, Y0: 0, X1: c.s.Mesh.Width - 1, Y1: c.s.Mesh.Height - 1, Speed: 1}}
		runRelation(t, c.name, c.s, with)
	}
}

// TestRelationRMSDAtItsCeilingIsNoDVFS: with λmax well below the offered
// load, every control period's measured rate asks RMSD for more than
// f_max, so it runs at f_max throughout, as No-DVFS does. λmax is drawn
// from 0.3–0.6 of the load, far enough below it that no period's
// sampling noise reaches it.
func TestRelationRMSDAtItsCeilingIsNoDVFS(t *testing.T) {
	for _, c := range relationCases() {
		rmsd := c.s
		rmsd.Policy = RMSD
		rmsd.Calibration = &Calibration{LambdaMax: c.s.Load * (0.3 + 0.3*c.rng.Float64())}
		runRelation(t, c.name, c.s, rmsd)
	}
}
