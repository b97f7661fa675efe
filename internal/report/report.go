// Package report checks reproduced figure data against the paper's
// published claims and renders a paper-vs-measured markdown report (the
// generator behind EXPERIMENTS.md).
//
// Each Claim names a quantity the paper states (an annotation on a figure
// or a number in the prose), how to extract it from the regenerated
// tables, and the acceptance band within which the reproduction is
// considered to match. Bands are deliberately generous where the paper's
// number depends on the authors' specific router RTL or standard-cell
// library; see README.md § What was substituted.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/sweep"
)

// Claim is one published statement checked against measured data.
type Claim struct {
	// ID names the claim (e.g. "fig2b-peak-ratio").
	ID string
	// Source cites where the paper states it.
	Source string
	// Statement is the paper's claim in words.
	Statement string
	// Expected describes the published value.
	Expected string
	// Lo, Hi bound the acceptance band for Extract's value.
	Lo, Hi float64
	// Extract pulls the measured value out of the table set; it returns
	// an error when the needed table is missing.
	Extract func(tables map[string]sweep.Table) (float64, error)
}

// Verdict is the outcome of checking one claim.
type Verdict struct {
	Claim    Claim
	Measured float64
	Pass     bool
	Err      error
}

// Check evaluates every claim against the tables (indexed by table ID).
func Check(claims []Claim, tables []sweep.Table) []Verdict {
	index := make(map[string]sweep.Table, len(tables))
	for _, t := range tables {
		index[t.ID] = t
	}
	out := make([]Verdict, 0, len(claims))
	for _, c := range claims {
		v := Verdict{Claim: c}
		val, err := c.Extract(index)
		if err != nil {
			v.Err = err
		} else {
			v.Measured = val
			v.Pass = val >= c.Lo && val <= c.Hi
		}
		out = append(out, v)
	}
	return out
}

// WriteMarkdown renders verdicts as a markdown table with a summary line.
func WriteMarkdown(w io.Writer, title string, verdicts []Verdict) error {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", title)
	b.WriteString("| claim | paper | measured | band | verdict |\n")
	b.WriteString("|---|---|---|---|---|\n")
	pass := 0
	for _, v := range verdicts {
		verdict := "**PASS**"
		measured := formatValue(v.Measured)
		switch {
		case v.Err != nil:
			verdict = "ERROR: " + v.Err.Error()
			measured = "—"
		case !v.Pass:
			verdict = "DEVIATION"
		default:
			pass++
		}
		fmt.Fprintf(&b, "| %s (%s) | %s | %s | [%s, %s] | %s |\n",
			v.Claim.Statement, v.Claim.Source, v.Claim.Expected,
			measured, formatValue(v.Claim.Lo), formatValue(v.Claim.Hi), verdict)
	}
	fmt.Fprintf(&b, "\n%d/%d claims within band.\n\n", pass, len(verdicts))
	_, err := io.WriteString(w, b.String())
	return err
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// ---- extraction helpers ----

// need returns the named table or an error.
func need(tables map[string]sweep.Table, id string) (sweep.Table, error) {
	t, ok := tables[id]
	if !ok {
		return sweep.Table{}, fmt.Errorf("table %s not generated", id)
	}
	if len(t.Rows) == 0 {
		return sweep.Table{}, fmt.Errorf("table %s is empty", id)
	}
	return t, nil
}

// colRatioAt returns col(a)/col(b) of the row whose first column is
// closest to x.
func colRatioAt(t sweep.Table, a, b int, x float64) float64 {
	best, bd := 0, math.Inf(1)
	for i, row := range t.Rows {
		if d := math.Abs(row[0] - x); d < bd {
			best, bd = i, d
		}
	}
	if t.Rows[best][b] == 0 {
		return math.NaN()
	}
	return t.Rows[best][a] / t.Rows[best][b]
}

// maxRatio returns the maximum over rows of col(a)/col(b).
func maxRatio(t sweep.Table, a, b int) float64 {
	out := math.Inf(-1)
	for _, row := range t.Rows {
		if row[b] == 0 {
			continue
		}
		if r := row[a] / row[b]; r > out {
			out = r
		}
	}
	return out
}

// BaselineClaims returns the claims checkable from the baseline bundle
// tables (Figs. 2, 4, 5, 6 and the summary).
func BaselineClaims() []Claim {
	return []Claim{
		{
			ID: "fig2b-peak-ratio", Source: "Sec. III / Fig. 2b",
			Statement: "RMSD delay peak over No-DVFS delay at the same rate",
			Expected:  "about 9x", Lo: 4, Hi: 16,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "fig2b")
				if err != nil {
					return 0, err
				}
				return maxRatio(t, 2, 1), nil
			},
		},
		{
			ID: "fig2b-nonmonotonic", Source: "Sec. III / Fig. 2b",
			Statement: "RMSD delay non-monotonic: peak strictly inside the rate range",
			Expected:  "peak near λmin", Lo: 1, Hi: 1,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "fig2b")
				if err != nil {
					return 0, err
				}
				peak := 0
				for i, row := range t.Rows {
					if row[2] > t.Rows[peak][2] {
						peak = i
					}
				}
				if peak > 0 && peak < len(t.Rows)-1 {
					return 1, nil // interior peak: anomaly present
				}
				return 0, nil
			},
		},
		{
			ID: "fig4a-freq-order", Source: "Sec. IV / Fig. 4a",
			Statement: "RMSD frequency ≤ DMSD frequency at every rate",
			Expected:  "always", Lo: 1, Hi: 1,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "fig4a")
				if err != nil {
					return 0, err
				}
				for _, row := range t.Rows {
					if row[2] > row[3]*1.03 {
						return 0, nil
					}
				}
				return 1, nil
			},
		},
		{
			ID: "fig4b-dmsd-flat", Source: "Sec. IV / Fig. 4b",
			Statement: "DMSD delay within 30% of its target across the scaling range",
			Expected:  "flat at target", Lo: 1, Hi: 1,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "fig4b")
				if err != nil {
					return 0, err
				}
				// The target is recorded in the calibration note; recover
				// it from the last column's high-load plateau instead:
				// use the median of the DMSD column.
				vals := make([]float64, 0, len(t.Rows))
				for _, row := range t.Rows {
					vals = append(vals, row[3])
				}
				med := median(vals)
				for _, row := range t.Rows[1:] { // first point may clip at FMin
					if math.Abs(row[3]-med)/med > 0.30 {
						return 0, nil
					}
				}
				return 1, nil
			},
		},
		{
			ID: "fig6-nodvfs-rmsd", Source: "Fig. 6 annotation",
			Statement: "No-DVFS / RMSD power at 0.2 injection rate",
			Expected:  "2.2x", Lo: 1.6, Hi: 3.2,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "fig6")
				if err != nil {
					return 0, err
				}
				return colRatioAt(t, 1, 2, 0.2), nil
			},
		},
		{
			ID: "fig6-dmsd-rmsd", Source: "Fig. 6 annotation",
			Statement: "DMSD / RMSD power at 0.2 injection rate",
			Expected:  "1.3x", Lo: 1.0, Hi: 1.8,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "fig6")
				if err != nil {
					return 0, err
				}
				return colRatioAt(t, 3, 2, 0.2), nil
			},
		},
		{
			ID: "fig5-anchor-low", Source: "Sec. IV-A / Fig. 5",
			Statement: "frequency at 0.56 V",
			Expected:  "333 MHz", Lo: 0.32, Hi: 0.35,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "fig5")
				if err != nil {
					return 0, err
				}
				return t.Rows[0][1], nil
			},
		},
		{
			ID: "fig5-anchor-high", Source: "Sec. IV-A / Fig. 5",
			Statement: "frequency at 0.90 V",
			Expected:  "1 GHz", Lo: 0.99, Hi: 1.01,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "fig5")
				if err != nil {
					return 0, err
				}
				return t.Rows[len(t.Rows)-1][1], nil
			},
		},
		{
			ID: "summary-delay-ratio", Source: "Sec. I / Sec. VII",
			Statement: "maximum RMSD/DMSD delay ratio across the rate grid",
			Expected:  "up to ~3x", Lo: 1.3, Hi: 6,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "summary")
				if err != nil {
					return 0, err
				}
				out := math.Inf(-1)
				for _, row := range t.Rows {
					if row[4] > out {
						out = row[4]
					}
				}
				return out, nil
			},
		},
	}
}

// PatternClaims returns the Fig. 7 claims for one synthetic pattern: the
// delay-ratio annotations (2x–2.5x) and the power-ordering statement.
func PatternClaims(pattern string, expectedDelayRatio string) []Claim {
	delayID := "fig7_" + pattern + "_delay"
	powerID := "fig7_" + pattern + "_power"
	return []Claim{
		{
			ID: "fig7-" + pattern + "-delay", Source: "Fig. 7 annotation",
			Statement: fmt.Sprintf("max RMSD/DMSD delay ratio, %s", pattern),
			Expected:  expectedDelayRatio, Lo: 1.15, Hi: 6,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, delayID)
				if err != nil {
					return 0, err
				}
				return maxRatio(t, 2, 3), nil
			},
		},
		{
			ID: "fig7-" + pattern + "-power", Source: "Sec. V",
			Statement: fmt.Sprintf("DMSD/RMSD power at mid grid, %s", pattern),
			Expected:  "1.2x-1.4x", Lo: 0.98, Hi: 1.8,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, powerID)
				if err != nil {
					return 0, err
				}
				mid := t.Rows[len(t.Rows)/2][0]
				return colRatioAt(t, 3, 2, mid), nil
			},
		},
	}
}

// AppClaims returns the Fig. 10 claims for one multimedia workload.
func AppClaims(app string) []Claim {
	delayID := "fig10_" + app + "_delay"
	powerID := "fig10_" + app + "_power"
	return []Claim{
		{
			ID: "fig10-" + app + "-delay", Source: "Fig. 10 annotation",
			Statement: fmt.Sprintf("max RMSD/DMSD delay ratio, %s", app),
			Expected:  "~2x", Lo: 1.1, Hi: 8,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, delayID)
				if err != nil {
					return 0, err
				}
				return maxRatio(t, 2, 3), nil
			},
		},
		{
			ID: "fig10-" + app + "-power", Source: "Fig. 10 annotation",
			Statement: fmt.Sprintf("No-DVFS/DMSD power at full speed, %s", app),
			Expected:  "≥1.4x", Lo: 1.2, Hi: 12,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, powerID)
				if err != nil {
					return 0, err
				}
				last := t.Rows[len(t.Rows)-1]
				if last[3] == 0 {
					return math.NaN(), nil
				}
				return last[1] / last[3], nil
			},
		},
	}
}

// BurstClaims returns the beyond-paper workload checks: the burst study
// repeats the baseline three-policy comparison under MMPP arrivals with
// the same mean load and the same calibration, so the claims are about
// orderings the DVFS story predicts rather than numbers the paper
// publishes (it only evaluates Poisson-like sources).
func BurstClaims() []Claim {
	// burst_compare columns: rate, then {poisson,mmpp} delay for
	// nodvfs (1,2), rmsd (3,4) and dmsd (5,6).
	return []Claim{
		{
			ID: "burst-nodvfs-inflation", Source: "beyond paper",
			Statement: "max MMPP/Poisson No-DVFS delay ratio (bursts at equal mean load cost latency)",
			Expected:  ">1.3x", Lo: 1.3, Hi: 20,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "burst_compare")
				if err != nil {
					return 0, err
				}
				return maxRatio(t, 2, 1), nil
			},
		},
		{
			ID: "burst-dmsd-tracking", Source: "beyond paper",
			Statement: "MMPP/Poisson DMSD delay at mid load (the controller still holds its target under bursts)",
			Expected:  "≈1x", Lo: 0.6, Hi: 2.5,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "burst_compare")
				if err != nil {
					return 0, err
				}
				mid := t.Rows[len(t.Rows)/2][0]
				return colRatioAt(t, 6, 5, mid), nil
			},
		},
		{
			ID: "burst-rmsd-vs-dmsd", Source: "beyond paper",
			Statement: "RMSD/DMSD delay at mid load under MMPP (rate-only control degrades more than delay control)",
			Expected:  ">1.3x", Lo: 1.3, Hi: 20,
			Extract: func(tables map[string]sweep.Table) (float64, error) {
				t, err := need(tables, "burst_compare")
				if err != nil {
					return 0, err
				}
				mid := t.Rows[len(t.Rows)/2][0]
				return colRatioAt(t, 4, 6, mid), nil
			},
		},
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if len(cp)%2 == 1 {
		return cp[len(cp)/2]
	}
	return (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
}
