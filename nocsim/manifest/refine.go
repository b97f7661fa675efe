package manifest

import (
	"fmt"
	"math"
	"sort"

	"repro/nocsim"
)

// Adaptive refinement: a fixed load grid burns most of its budget on
// flat regions, while the paper's claims live at saturation knees and
// policy crossovers. Refine turns a completed coarse pass into a child
// manifest of extra loads placed where the measured curves actually
// bend, and MergeRefined folds both passes back into one monotone load
// axis so every existing renderer works unchanged.
//
// Determinism is the contract that lets the rest of the stack stay
// ignorant of refinement: the child manifest is a pure function of the
// parent manifest and its results (no clocks, no randomness, stable
// tie-breaks), and its name embeds the parent's plan fingerprint — so
// two machines refining the same coarse pass emit byte-identical child
// manifests, the coordinator can derive the child itself and treat it as
// just another plan, and stale children from an earlier parent plan can
// never be confused with fresh ones.

const (
	// refineTag joins a parent manifest's name and fingerprint into its
	// child's name ("baseline-refine-8f2a91c03d64e7b1").
	refineTag = "-refine-"
	// flatRelRange is the relative delay range below which a curve is
	// considered flat end to end: nothing to refine, whatever the
	// pointwise differences look like (they are noise).
	flatRelRange = 0.05
	// minScore drops intervals whose normalized signal is indistinguishable
	// from a flat region, so a generous budget is not spent on noise.
	minScore = 0.05
	// kneeBonus is added to the interval entering the detected knee (and
	// half of it to the interval leaving it), so knee bracketing always
	// outranks plain gradient refinement.
	kneeBonus = 1.0
)

// RefineName returns the deterministic name of the refinement manifest
// derived from a parent plan: the parent's name joined with its plan
// fingerprint. A coordinator registers the child it derives under this
// name, so a client that ran the parent asks for its refinement by it.
func RefineName(parent *Manifest) (string, error) {
	sum, err := Sum(parent)
	if err != nil {
		return "", err
	}
	return parent.Name + refineTag + sum, nil
}

// Knee estimates the saturation knee of one delay curve: the first load
// whose delay is at least double the lowest-load delay — the last load
// when the curve never doubles (no knee inside the grid). The rule is
// deliberately grid-coarse: it is used to annotate tables and to compare
// a refined run against a fixed-grid run within one coarse grid step,
// not to claim sub-interval precision.
func Knee(loads, delays []float64) (load float64, idx int) {
	if len(loads) == 0 || len(loads) != len(delays) {
		return math.NaN(), -1
	}
	for i, d := range delays {
		if d >= 2*delays[0] {
			return loads[i], i
		}
	}
	return loads[len(loads)-1], len(loads) - 1
}

// kneeIdx is the refinement-side knee rule: like Knee but also accepting
// the engine's own saturation guard as evidence, which tables don't
// carry. Returns -1 when the curve never knees.
func kneeIdx(delays []float64, saturated []bool) int {
	for i, d := range delays {
		if saturated[i] || d >= 2*delays[0] {
			return i
		}
	}
	return -1
}

// candidate is one half-open load interval of one panel, scored by how
// much measured signal it contains.
type candidate struct {
	panel int // parent panel index
	ival  int // interval [Loads[ival], Loads[ival+1]]
	score float64
	load  float64 // midpoint: the refinement load this candidate adds
}

// perLoadSims is how many simulated points one added load costs in a
// grid (one per swept policy).
func perLoadSims(g nocsim.Grid) int {
	return max(1, len(g.Policies))
}

// Refine builds the refinement manifest of a completed coarse pass: for
// every panel it scores each load interval by the normalized delay
// gradient and curvature across all policy curves, boosts the intervals
// bracketing the detected saturation knee, and greedily accepts interval
// midpoints in score order until budget added simulated points are
// spent. The result is an ordinary resolved-grid manifest — same base
// scenarios, same pinned calibrations, same policies, only new loads —
// that every executor (local run, journal, coordinator, results store)
// handles unchanged. It returns nil when no interval carries enough
// signal to be worth a simulation.
//
// Refine is deterministic: the same parent manifest and results produce
// a byte-identical child manifest (golden-tested), on any machine.
func Refine(parent *Manifest, results []nocsim.Result, budget int) (*Manifest, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("manifest: refine budget must be positive (got %d)", budget)
	}
	if n := parent.NumPoints(); len(results) != n {
		return nil, fmt.Errorf("manifest: refining %s: %d results for %d points", parent.Name, len(results), n)
	}
	off := parent.Offsets()
	var cands []candidate
	for pi, panel := range parent.Panels {
		g := panel.Grid
		nl := len(g.Loads)
		if nl < 2 {
			continue // a single-load panel (e.g. the PI transient) has no axis to refine
		}
		for i := 1; i < nl; i++ {
			if g.Loads[i] <= g.Loads[i-1] {
				return nil, fmt.Errorf("manifest: refining %s: panel %s loads not strictly increasing", parent.Name, panel.Label)
			}
		}
		scores := make([]float64, nl-1)
		for pol := 0; pol < perLoadSims(g); pol++ { // one delay curve per policy, policies outer
			curve := results[off[pi]+pol*nl : off[pi]+(pol+1)*nl]
			delays := make([]float64, nl)
			saturated := make([]bool, nl)
			for li, r := range curve {
				delays[li] = r.AvgDelayNs
				saturated[li] = r.Saturated
			}
			lo, hi := delays[0], delays[0]
			for _, d := range delays[1:] {
				lo, hi = math.Min(lo, d), math.Max(hi, d)
			}
			if hi <= 0 || (hi-lo)/hi < flatRelRange {
				continue // flat curve: pointwise differences are noise
			}
			rng := hi - lo
			curv := make([]float64, nl) // normalized |second difference| at interior samples
			for li := 1; li < nl-1; li++ {
				curv[li] = math.Abs(delays[li+1]-2*delays[li]+delays[li-1]) / rng
			}
			knee := kneeIdx(delays, saturated)
			for i := 0; i < nl-1; i++ {
				s := math.Abs(delays[i+1]-delays[i])/rng + float64(0.5*math.Max(curv[i], curv[i+1]))
				if knee >= 1 {
					if i == knee-1 {
						s += kneeBonus
					} else if i == knee {
						s += 0.5 * kneeBonus
					}
				}
				scores[i] = math.Max(scores[i], s)
			}
		}
		for i, s := range scores {
			if s < minScore {
				continue
			}
			cands = append(cands, candidate{
				panel: pi, ival: i, score: s,
				load: 0.5 * (g.Loads[i] + g.Loads[i+1]),
			})
		}
	}
	// Highest signal first; ties break on (panel, interval) so the order —
	// and therefore the budget cut-off — is deterministic.
	sort.SliceStable(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.score != cb.score {
			return ca.score > cb.score
		}
		if ca.panel != cb.panel {
			return ca.panel < cb.panel
		}
		return ca.ival < cb.ival
	})
	added := map[int][]float64{}
	spent := 0
	for _, c := range cands {
		cost := perLoadSims(parent.Panels[c.panel].Grid)
		if spent+cost > budget {
			continue // a cheaper panel's candidate may still fit
		}
		spent += cost
		added[c.panel] = append(added[c.panel], c.load)
	}
	if spent == 0 {
		return nil, nil
	}
	name, err := RefineName(parent)
	if err != nil {
		return nil, err
	}
	child := &Manifest{Name: name, Quick: parent.Quick, Points: parent.Points, Seed: parent.Seed}
	for pi, panel := range parent.Panels {
		loads := added[pi]
		if len(loads) == 0 {
			// Dropped, not emptied: a Grid with no loads still counts one
			// point (Base.Load), which would silently re-run the base.
			continue
		}
		sort.Float64s(loads)
		g := panel.Grid
		child.Panels = append(child.Panels, Panel{
			Label: panel.Label,
			Grid:  nocsim.Grid{Base: g.Base, Loads: loads, Policies: g.Policies},
		})
	}
	return child, nil
}

// MergeRefined folds a refinement pass back into its parent: per panel,
// the union of both load axes sorted ascending (exact duplicates keep
// the parent's result), with the flat result list rebuilt in the merged
// manifest's own point order (policies outer, loads inner). The merged
// manifest keeps the parent's name, so Render dispatches to the same
// figure renderer and the tables keep their exact existing format — a
// refined table is simply a denser one.
//
// A nil or empty child returns the parent and its results untouched, so
// a run whose refinement found nothing renders byte-identically to a
// plain run of the coarse grid.
func MergeRefined(parent *Manifest, parentResults []nocsim.Result, child *Manifest, childResults []nocsim.Result) (*Manifest, []nocsim.Result, error) {
	if child == nil || child.NumPoints() == 0 {
		return parent, parentResults, nil
	}
	if n := parent.NumPoints(); len(parentResults) != n {
		return nil, nil, fmt.Errorf("manifest: merging %s: %d parent results for %d points", parent.Name, len(parentResults), n)
	}
	if n := child.NumPoints(); len(childResults) != n {
		return nil, nil, fmt.Errorf("manifest: merging %s: %d child results for %d points", child.Name, len(childResults), n)
	}
	poff, coff := parent.Offsets(), child.Offsets()
	childPanel := map[string]int{}
	for i, p := range child.Panels {
		if _, dup := childPanel[p.Label]; dup {
			return nil, nil, fmt.Errorf("manifest: merging %s: duplicate child panel %q", child.Name, p.Label)
		}
		childPanel[p.Label] = i
	}
	merged := &Manifest{Name: parent.Name, Quick: parent.Quick, Points: parent.Points, Seed: parent.Seed}
	var results []nocsim.Result
	matched := 0
	for pi, panel := range parent.Panels {
		g := panel.Grid
		ci, ok := childPanel[panel.Label]
		if !ok {
			merged.Panels = append(merged.Panels, panel)
			results = append(results, parentResults[poff[pi]:poff[pi+1]]...)
			continue
		}
		matched++
		cg := child.Panels[ci].Grid
		if len(cg.Policies) != len(g.Policies) {
			return nil, nil, fmt.Errorf("manifest: merging %s panel %q: child sweeps %d policies, parent %d", parent.Name, panel.Label, len(cg.Policies), len(g.Policies))
		}
		for i := range g.Policies {
			if cg.Policies[i] != g.Policies[i] {
				return nil, nil, fmt.Errorf("manifest: merging %s panel %q: child policy %d is %s, parent %s", parent.Name, panel.Label, i, cg.Policies[i], g.Policies[i])
			}
		}
		// Merge the two sorted load axes; on an exact tie the parent's
		// sample wins and the child's is dropped.
		type src struct {
			child bool
			idx   int
		}
		var loads []float64
		var srcs []src
		i, j := 0, 0
		for i < len(g.Loads) || j < len(cg.Loads) {
			if j >= len(cg.Loads) || (i < len(g.Loads) && g.Loads[i] <= cg.Loads[j]) {
				if i < len(g.Loads) && j < len(cg.Loads) && g.Loads[i] == cg.Loads[j] {
					j++
				}
				loads = append(loads, g.Loads[i])
				srcs = append(srcs, src{false, i})
				i++
			} else {
				loads = append(loads, cg.Loads[j])
				srcs = append(srcs, src{true, j})
				j++
			}
		}
		for k := 1; k < len(loads); k++ {
			if loads[k] <= loads[k-1] {
				return nil, nil, fmt.Errorf("manifest: merging %s panel %q: merged loads not strictly increasing (are both axes sorted?)", parent.Name, panel.Label)
			}
		}
		pnl, cnl := len(g.Loads), len(cg.Loads)
		for pol := 0; pol < max(1, len(g.Policies)); pol++ {
			for _, s := range srcs {
				if s.child {
					results = append(results, childResults[coff[ci]+pol*cnl+s.idx])
				} else {
					results = append(results, parentResults[poff[pi]+pol*pnl+s.idx])
				}
			}
		}
		merged.Panels = append(merged.Panels, Panel{
			Label: panel.Label,
			Grid:  nocsim.Grid{Base: g.Base, Loads: loads, Policies: g.Policies},
		})
	}
	if matched != len(child.Panels) {
		return nil, nil, fmt.Errorf("manifest: merging %s: child %s has panels the parent lacks", parent.Name, child.Name)
	}
	return merged, results, nil
}
