// Command figures regenerates the paper's tables and figures as numeric
// tables on stdout (or CSV files with -csv).
//
//	figures -fig all            # everything (takes several minutes)
//	figures -fig 2,4,6 -quick   # the baseline trio with short windows
//	figures -fig 5              # the voltage-frequency curve (instant)
//	figures -fig 10 -points 6   # multimedia panels with 6 speed samples
//
// With -manifest DIR every figure is planned as a resolved-grid JSON
// manifest (DIR/<fig>.manifest.json) and each completed simulation point
// is appended to DIR/<fig>.points.jsonl as it finishes. An interrupted
// run therefore keeps everything it paid for: re-running with -resume
// reloads the manifest (skipping calibration) and computes only the
// missing points before reassembling the tables.
//
//	figures -fig 8 -manifest runs/fig8            # restartable run
//	figures -fig 8 -manifest runs/fig8 -resume    # finish an interrupted run
//
// With -coordinator URL the figures are not computed (only) here: the
// manifests are served by a nocsimd coordinator, this process joins as
// one more worker, and the tables are reassembled from the
// coordinator's journal once every point is posted — byte-identical to
// a single-process run of the same options.
//
//	figures -fig 7 -quick -coordinator http://10.0.0.7:9090
//
// With -adaptive each manifest-backed figure runs as a two-phase
// adaptive sweep: the planned grid becomes a coarse pass, a refinement
// manifest is derived from its results (extra load samples where the
// curves bend and around the saturation knee, at most -refine-budget
// points), and the tables merge both passes onto one load axis. Works
// with -manifest (the refinement is journaled and resumable like any
// figure) and with -coordinator (the refinement is posted to the live
// coordinator and drained by the same fleet, no restart).
//
//	figures -fig 2 -adaptive -refine-budget 12 -manifest runs/fig2
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/sweep"
)

// reportProgress polls the exp engine's cumulative point counters and
// logs completion, throughput and the in-flight leaf-simulation count
// until the process exits. The scheduled total grows as nested sweeps
// enqueue work, so the ETA firms up as the run proceeds.
func reportProgress(interval time.Duration) {
	start := time.Now()
	for range time.Tick(interval) {
		scheduled, done := exp.Stats()
		if done == 0 {
			continue
		}
		elapsed := time.Since(start)
		rate := float64(done) / elapsed.Seconds()
		inFlight, _ := exp.LeafStats()
		msg := fmt.Sprintf("progress: %d/%d points, %.1f points/s, %d sims in flight",
			done, scheduled, rate, inFlight)
		if left := scheduled - done; left > 0 && rate > 0 {
			eta := time.Duration(float64(left) / rate * float64(time.Second))
			msg += fmt.Sprintf(", eta >= %s", eta.Round(time.Second))
		}
		log.Print(msg)
	}
}

// selection maps the user's -fig tokens to the manifest-backed figures
// to run (the vocabulary lives in sweep.ResolveFigures, shared with
// cmd/nocsimd), whether the analytic Fig. 5 is wanted, and the table-ID
// prefixes to keep from the shared baseline manifest.
func selection(figs string) (run []string, fig5 bool, baselineIDs map[string]bool, err error) {
	run, fig5, err = sweep.ResolveFigures(figs)
	if err != nil {
		return nil, false, nil, err
	}
	want := map[string]bool{}
	for _, f := range strings.Split(figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	baselineIDs = map[string]bool{}
	for token, prefix := range map[string]string{"2": "fig2", "4": "fig4", "6": "fig6", "summary": "summary"} {
		if all || want[token] {
			baselineIDs[prefix] = true
		}
	}
	if want["baseline"] {
		// The manifest name selects the whole shared study: every view.
		for _, prefix := range []string{"fig2", "fig4", "fig6", "summary"} {
			baselineIDs[prefix] = true
		}
	}
	return run, fig5, baselineIDs, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	var (
		figs     = flag.String("fig", "all", "comma-separated figure list: 2,4,5,6,7,8,10,pi,summary,ablation (or period,gains,levels,routing,breakdown individually) or 'all'")
		csvDir   = flag.String("csv", "", "also write one CSV per table into this directory")
		progress = flag.Bool("progress", false, "log point completion and ETA every few seconds")
	)
	sf := cli.RunFlags(flag.CommandLine, 0)
	sf.MaxPointsFlag()
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

	// The leaf budget is the process-wide cap on concurrently executing
	// simulations: nested panels stack worker pools, but never sims.
	exp.SetLeafBudget(*sf.Workers)

	// Interrupt cancels the context, which aborts in-flight simulations
	// promptly (the engine loop observes it).
	ctx, stop := cli.SignalContext()
	defer stop()

	o := sf.Options()
	run, fig5, baselineIDs, err := selection(*figs)
	if err != nil {
		log.Fatal(err)
	}
	if len(run) == 0 && !fig5 {
		log.Fatalf("nothing selected by -fig %q", *figs)
	}
	ex, err := sf.Executor()
	if err != nil {
		log.Fatal(err)
	}
	how := ""
	if *sf.Adaptive {
		how = " adaptively"
	}
	if *sf.Coordinator != "" {
		how += " via coordinator " + *sf.Coordinator
	}
	if *progress {
		if *sf.Coordinator != "" {
			// The exp counters track the local engine's grid points, which a
			// coordinator-mode run does not schedule; polling them would
			// print nothing (or nonsense) for the whole run.
			log.Print("-progress has no local view in -coordinator mode; watch the coordinator's logs or GET /v1/status/<fig>")
		} else {
			go reportProgress(3 * time.Second)
		}
	}

	var tables []sweep.Table
	incomplete := 0
	for _, fig := range run {
		log.Printf("running %s%s...", fig, how)
		ts, stats, err := sweep.Generate(ctx, fig, o, ex, sf.RefineBudget())
		if errors.Is(err, sweep.ErrIncomplete) {
			incomplete++
			log.Printf("%s: stopped after -max-points %d new points; finish it with -resume", fig, *sf.MaxPoints)
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		if *sf.Adaptive {
			if stats.ChildName == "" {
				log.Printf("%s: adaptive run simulated %d points, refinement found nothing worth adding", fig, stats.Total())
			} else {
				log.Printf("%s: adaptive run simulated %d points (%d coarse + %d refined as %s)",
					fig, stats.Total(), stats.CoarsePoints, stats.RefinedPoints, stats.ChildName)
			}
		}
		if fig == "baseline" {
			for _, t := range ts {
				for prefix := range baselineIDs {
					if strings.HasPrefix(t.ID, prefix) {
						tables = append(tables, t)
						break
					}
				}
			}
			continue
		}
		tables = append(tables, ts...)
	}
	if fig5 {
		tables = append(tables, sweep.Fig5(o)...)
	}
	if incomplete > 0 {
		log.Printf("%d figure(s) left incomplete (manifest saved under %s)", incomplete, *sf.Manifest)
		return
	}

	for i := range tables {
		if err := tables[i].Format(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *progress {
		log.Print(cli.SetupSummary())
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for i := range tables {
			path := filepath.Join(*csvDir, tables[i].ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := tables[i].CSV(f); err != nil {
				f.Close()
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %d CSV files to %s\n", len(tables), *csvDir)
	}
}
