// Command report regenerates the paper's evaluation and writes a
// paper-vs-measured markdown report (the generator behind EXPERIMENTS.md):
// for each published claim it extracts the measured value from the
// reproduced tables and records PASS or DEVIATION against an acceptance
// band.
//
//	report                 # full windows (several minutes)
//	report -quick          # reduced windows
//	report -o EXPERIMENTS.md -data results/figures_main.txt
//
// With -manifest DIR the underlying sweeps are persisted as resolved-grid
// manifests with per-point results, exactly as cmd/figures does; a
// re-run with -resume computes only the points an interrupted run left
// missing. With -coordinator URL the sweeps are computed through a
// nocsimd work-queue coordinator (this process joins as one more
// worker) and the report is assembled from the coordinator's journal —
// byte-identical to a local run of the same options.
//
// With -adaptive each sweep runs as a two-phase adaptive plan (coarse
// pass, then at most -refine-budget extra points where the curves
// bend); the claims are then checked against the merged tables. See
// cmd/figures for the flag's full story.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/nocsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")

	out := flag.String("o", "", "output file (default stdout)")
	sf := cli.RunFlags(flag.CommandLine, 6)
	cpuProfile, memProfile := cli.ProfileFlags()
	flag.Parse()

	if err := sf.Check(); err != nil {
		log.Fatal(err)
	}
	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
	}()

	exp.SetLeafBudget(*sf.Workers)

	ctx, stop := cli.SignalContext()
	defer stop()

	o := sf.Options()
	ex, err := sf.Executor()
	if err != nil {
		log.Fatal(err)
	}
	generate := func(fig string) []sweep.Table {
		tables, stats, err := sweep.Generate(ctx, fig, o, ex)
		if err != nil {
			log.Fatal(err)
		}
		if *sf.Adaptive {
			log.Printf("%s: adaptive run simulated %d points (%d coarse + %d refined)",
				fig, stats.Total(), stats.CoarsePoints, stats.RefinedPoints)
		}
		return tables
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	fmt.Fprintf(w, "# EXPERIMENTS — paper vs measured\n\n")
	fmt.Fprintf(w, "Generated by `go run ./cmd/report`%s on %s.\n\n",
		map[bool]string{true: " -quick", false: ""}[*sf.Quick],
		time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintf(w, "Acceptance bands are generous where the paper's absolute values depend\n")
	fmt.Fprintf(w, "on the authors' router RTL or 28-nm library (see README.md § What was substituted); the\n")
	fmt.Fprintf(w, "*orderings and shapes* are the reproduced claims.\n\n")
	fmt.Fprintf(w, "DMSD points are measured independently, each warm-started at its\n")
	fmt.Fprintf(w, "load's equilibrium guess (10%% above the RMSD frequency law) — the same model a\n")
	fmt.Fprintf(w, "standalone `nocsim` grid point uses. This re-rolled the DMSD numbers\n")
	fmt.Fprintf(w, "once (vs the earlier sequential warm-start chain) by a few percent;\n")
	fmt.Fprintf(w, "all claims stayed within band.\n\n")
	fmt.Fprintf(w, "DMSD alone takes adaptive warm-up (`runOne`, `nocsim/engine.go`): its\n")
	fmt.Fprintf(w, "measurement window opens once the commanded frequency has settled,\n")
	fmt.Fprintf(w, "while No-DVFS and RMSD measure after the fixed warm-up. A same-load\n")
	fmt.Fprintf(w, "comparison of the policies therefore compares different windows, and so\n")
	fmt.Fprintf(w, "different packets, of runs that share a seed.\n\n")

	log.Println("baseline bundle (figs 2/4/6/summary)...")
	tables := generate("baseline")
	tables = append(tables, sweep.Fig5(o)...)
	if err := report.WriteMarkdown(w, "Baseline (uniform 5x5) — Figs. 2, 4, 5, 6",
		report.Check(report.BaselineClaims(), tables)); err != nil {
		log.Fatal(err)
	}

	log.Println("synthetic patterns (fig 7)...")
	fig7 := generate("fig7")
	expected := map[string]string{
		"tornado": "2.5x", "bitcomp": "2.1x", "transpose": "2x", "neighbor": "2.5x",
	}
	var patternClaims []report.Claim
	for _, p := range nocsim.PaperPatterns() {
		patternClaims = append(patternClaims, report.PatternClaims(p, expected[p])...)
	}
	if err := report.WriteMarkdown(w, "Synthetic traffic — Fig. 7",
		report.Check(patternClaims, fig7)); err != nil {
		log.Fatal(err)
	}

	log.Println("multimedia workloads (fig 10)...")
	fig10 := generate("fig10")
	var appClaims []report.Claim
	appClaims = append(appClaims, report.AppClaims("h264")...)
	appClaims = append(appClaims, report.AppClaims("vce")...)
	if err := report.WriteMarkdown(w, "Multimedia workloads — Fig. 10",
		report.Check(appClaims, fig10)); err != nil {
		log.Fatal(err)
	}

	log.Println("beyond-paper workloads (burst)...")
	burst := generate("burst")
	if err := report.WriteMarkdown(w, "Beyond-paper workloads — bursty arrivals",
		report.Check(report.BurstClaims(), burst)); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "The paper only evaluates Poisson-like sources; this section repeats\n")
	fmt.Fprintf(w, "the baseline three-policy comparison under MMPP on-off arrivals with\n")
	fmt.Fprintf(w, "the *same* mean load and the *same* calibration (see `-fig burst`).\n\n")
	for _, t := range burst {
		if t.ID == "burst_compare" {
			if err := writeTableMarkdown(w, t); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Fprintf(w, "## Raw data\n\n")
	fmt.Fprintf(w, "Full numeric tables: `go run ./cmd/figures -fig all -csv results/`;\n")
	fmt.Fprintf(w, "add `-manifest DIR` for a restartable run (see README).\n")
	fmt.Fprintf(w, "The Fig. 8 sensitivity panels and the ablations (control period, PI\n")
	fmt.Fprintf(w, "gains, discrete levels, routing, power breakdown) are regenerated with\n")
	fmt.Fprintf(w, "`-fig 8` and `-fig ablation`. The test suite asserts the ablations\n")
	fmt.Fprintf(w, "(`internal/sweep/ablation_test.go`); the Fig. 8 panels carry no claims.\n")
	log.Printf("done (%s)", cli.SetupSummary())
}

// writeTableMarkdown renders one sweep table as a markdown pipe table
// with its provenance notes as a trailing italic line each.
func writeTableMarkdown(w io.Writer, t sweep.Table) error {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s** (`%s`)\n\n", t.Title, t.ID)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = strings.TrimSpace(fmt.Sprintf("%.4g", v))
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	b.WriteByte('\n')
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "*%s*\n\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
