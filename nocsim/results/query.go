package results

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/nocsim"
)

// Query selects stored points. Every zero-valued field means "any";
// set fields combine with AND. Scenario-level filters (policy, pattern,
// app, mesh, load) match against the fully resolved scenario each result
// carries, so they need no knowledge of how the plan laid out its grid.
type Query struct {
	// Plan restricts to one plan: a fingerprint or a manifest name (a
	// name picks the latest plan with that name, as Store.Resolve does).
	Plan string `json:"plan,omitempty"`
	// Panel restricts to one panel label within the plan(s).
	Panel string `json:"panel,omitempty"`
	// Policy, Pattern, App and Mesh filter on the executed scenario.
	// Mesh is "WxH", e.g. "5x5".
	Policy  string `json:"policy,omitempty"`
	Pattern string `json:"pattern,omitempty"`
	App     string `json:"app,omitempty"`
	Mesh    string `json:"mesh,omitempty"`
	// MinLoad and MaxLoad bound the operating point (inclusive); a zero
	// MaxLoad means unbounded.
	MinLoad float64 `json:"min_load,omitempty"`
	MaxLoad float64 `json:"max_load,omitempty"`
	// Limit caps the number of returned points; zero means no cap.
	Limit int `json:"limit,omitempty"`
}

// Point is one query hit: where the result lives in its plan, plus the
// result itself.
type Point struct {
	Name  string `json:"name"`
	Sum   string `json:"sum"`
	Panel string `json:"panel"`
	Index int    `json:"index"`
	nocsim.Result
}

// Select returns the stored points matching q, ordered by plan ingest
// order then point index.
func (s *Store) Select(q Query) ([]Point, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	scope := s.order
	if q.Plan != "" {
		sum := q.Plan
		if _, ok := s.plans[sum]; !ok {
			sums := s.names[q.Plan]
			if len(sums) == 0 {
				return nil, fmt.Errorf("results: unknown plan %q", q.Plan)
			}
			sum = sums[len(sums)-1]
		}
		scope = []string{sum}
	}
	mesh, ok := parseMesh(q.Mesh)
	if !ok {
		return nil, nil // no scenario prints its mesh that way
	}
	// Collect the hits, then copy their results into an output of exactly
	// that size: a Result is too large to copy again as out grows.
	type hit struct {
		p     *plan
		pt    *point
		label string
	}
	var hits []hit
scan:
	for _, sum := range scope {
		p := s.plans[sum]
		for k := range p.points {
			pt := &p.points[k]
			label := p.label(pt.index)
			if !q.matches(label, mesh, &pt.r) {
				continue
			}
			hits = append(hits, hit{p, pt, label})
			if q.Limit > 0 && len(hits) >= q.Limit {
				break scan
			}
		}
	}
	if len(hits) == 0 {
		return nil, nil
	}
	out := make([]Point, len(hits))
	for k, h := range hits {
		out[k] = Point{Name: h.p.m.Name, Sum: h.p.sum, Panel: h.label, Index: h.pt.index, Result: h.pt.r}
	}
	return out, nil
}

// label returns the panel label of global point index i.
func (p *plan) label(i int) string {
	pi := sort.SearchInts(p.offs[1:], i+1)
	if pi >= len(p.m.Panels) {
		return ""
	}
	return p.m.Panels[pi].Label
}

// meshDims is a parsed Query.Mesh; the zero value matches any mesh.
type meshDims struct {
	set           bool
	width, height int
}

// parseMesh parses a Query.Mesh once per Select. A mesh matches a
// scenario when it reads exactly as fmt's "%dx%d" prints the scenario's
// width and height, so a text that is not such a print ("5X5", "05x5",
// "5x5x5") matches none, and parseMesh reports false.
func parseMesh(s string) (meshDims, bool) {
	if s == "" {
		return meshDims{}, true
	}
	ws, hs, _ := strings.Cut(s, "x")
	w, errW := strconv.Atoi(ws)
	h, errH := strconv.Atoi(hs)
	if errW != nil || errH != nil || strconv.Itoa(w) != ws || strconv.Itoa(h) != hs {
		return meshDims{}, false
	}
	return meshDims{true, w, h}, true
}

func (q *Query) matches(panel string, mesh meshDims, r *nocsim.Result) bool {
	sc := &r.Scenario
	switch {
	case q.Panel != "" && panel != q.Panel:
		return false
	case q.Policy != "" && string(sc.Policy) != q.Policy:
		return false
	case q.Pattern != "" && sc.Pattern != q.Pattern:
		return false
	case q.App != "" && sc.App != q.App:
		return false
	case mesh.set && (sc.Mesh.Width != mesh.width || sc.Mesh.Height != mesh.height):
		return false
	case sc.Load < q.MinLoad:
		return false
	case q.MaxLoad > 0 && sc.Load > q.MaxLoad:
		return false
	}
	return true
}

// ParseQuery builds a Query from URL-style key=value parameters — the
// shared vocabulary of the HTTP API and tests. Unknown keys error, so a
// typoed filter cannot silently select everything, and so does a value
// that is not wholly a number: a finite one for the load bounds, one
// that is not negative for the limit.
func ParseQuery(params map[string]string) (Query, error) {
	var q Query
	for k, v := range params {
		switch k {
		case "plan", "fig", "manifest":
			q.Plan = v
		case "panel":
			q.Panel = v
		case "policy":
			q.Policy = v
		case "pattern":
			q.Pattern = v
		case "app":
			q.App = v
		case "mesh":
			q.Mesh = v
		case "min_load", "max_load":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
				return Query{}, fmt.Errorf("results: bad %s %q", k, v)
			}
			if k == "min_load" {
				q.MinLoad = x
			} else {
				q.MaxLoad = x
			}
		case "limit":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Query{}, fmt.Errorf("results: bad limit %q", v)
			}
			q.Limit = n
		default:
			return Query{}, fmt.Errorf("results: unknown query parameter %q (want plan/panel/policy/pattern/app/mesh/min_load/max_load/limit)", k)
		}
	}
	if strings.Contains(q.Mesh, " ") {
		return Query{}, fmt.Errorf("results: bad mesh %q (want WxH, e.g. 5x5)", q.Mesh)
	}
	return q, nil
}
