package sweep

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/queue"
	"repro/nocsim"
	"repro/nocsim/manifest"
)

// Executor is where a figure's points are computed and kept. The zero
// value is this process and nothing else: every figure is planned and
// computed in memory. With a Store the manifest and every completed
// point are persisted as the run proceeds — each journal line is flushed
// and synced before the point counts as saved. With a Client the work
// goes through a queue coordinator instead: the coordinator plans and
// journals, its fleet computes, this process joins as one more worker,
// and the other fields are not used.
type Executor struct {
	Store *manifest.DirStore
	// Resume reuses a stored manifest (skipping calibration) and its
	// journaled points instead of planning afresh.
	Resume bool
	// Limit > 0 stops each pass after that many new points, leaving the
	// figure incomplete in the store for a resumed run to finish.
	Limit int

	Client *queue.Client
}

// remoteWait bounds how long Open waits for the coordinator to serve a
// figure's manifest. Generous — full-window planning runs a calibration
// per panel — but finite, so a wrong URL or a figure the coordinator was
// never asked to serve errors out instead of hanging.
const remoteWait = 15 * time.Minute

// checkOptions refuses a manifest that came from elsewhere (whose:
// "stored", "coordinator's") and was planned under options other than o,
// rather than mixing its points with this run's.
func checkOptions(m *manifest.Manifest, o Options, whose, otherwise string) error {
	o.setDefaults()
	if m.Quick != o.Quick || m.Points != o.Points || m.Seed != o.Seed {
		return fmt.Errorf("sweep: %s %s manifest was planned with quick=%v points=%d seed=%d; re-run with those options%s",
			whose, m.Name, m.Quick, m.Points, m.Seed, otherwise)
	}
	return nil
}

// Open returns the figure's manifest and the completed points on record
// for it here (keyed by point index). A coordinator's manifest is fetched,
// waiting for one that is still starting or planning; its posted points
// stay with it until run fetches them. Locally, with Resume and a store
// holding a manifest planned under the same options, the stored plan and
// its journaled points are reused; otherwise the figure is planned fresh
// and — with a store — persisted, invalidating any stale points.
//
// The queue coordinator's serve path (cmd/nocsimd) starts here too, so a
// crashed coordinator resumes from exactly the journal an interrupted
// local run would.
func (e Executor) Open(ctx context.Context, fig string, o Options) (*manifest.Manifest, map[int]nocsim.Result, error) {
	switch {
	case e.Client != nil:
		m, err := e.Client.WaitManifest(ctx, fig, remoteWait)
		if err != nil {
			return nil, nil, err
		}
		return m, nil, checkOptions(m, o, "coordinator's", "")
	case e.Store == nil && e.Limit > 0:
		// The limited run's points would be computed and thrown away,
		// with no way to resume.
		return nil, nil, errors.New("sweep: -max-points needs -manifest")
	case e.Store != nil && e.Resume:
		m, err := e.Store.LoadManifest(fig)
		if err != nil {
			return nil, nil, err
		}
		if m != nil {
			if err := checkOptions(m, o, "stored", " or without -resume"); err != nil {
				return nil, nil, err
			}
			have, err := e.Store.LoadPoints(fig)
			return m, have, err
		}
	}
	m, err := Plan(ctx, fig, o)
	if err != nil || e.Store == nil {
		return m, nil, err
	}
	return m, nil, e.Store.SaveManifest(m)
}

// run computes the points of m that are not in have and returns all of
// m's results in point order, or ErrIncomplete when Limit stopped it.
func (e Executor) run(ctx context.Context, m *manifest.Manifest, have map[int]nocsim.Result, workers int) ([]nocsim.Result, error) {
	if e.Client != nil {
		// Contribute as a worker scoped to m. Run returns only when the
		// manifest is complete — if other workers hold the last leases we
		// poll until they post or their leases expire and we compute the
		// points ourselves, so completion never hinges on anyone else
		// staying alive.
		w := &queue.Worker{Client: e.Client, Workers: workers, Name: m.Name}
		if err := w.Run(ctx); err != nil {
			return nil, err
		}
		have, err := e.Client.Points(ctx, m.Name)
		if err != nil {
			return nil, err
		}
		results := make([]nocsim.Result, m.NumPoints())
		for i := range results {
			res, ok := have[i]
			if !ok {
				return nil, fmt.Errorf("sweep: coordinator reported %s done but point %d is missing", m.Name, i)
			}
			results[i] = res
		}
		return results, nil
	}
	var save func(int, nocsim.Result) error
	if e.Store != nil {
		j, err := e.Store.Journal(m.Name)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		save = j.Append
	}
	results, complete, err := manifest.Run(ctx, m, workers, have, save, e.Limit)
	if err != nil {
		return nil, err
	}
	if !complete {
		return nil, ErrIncomplete
	}
	return results, nil
}

// submit puts a refinement manifest on record and returns the points
// already on record for that same plan. A live coordinator takes it as a
// follow-on, which clears the expectation server-side; a repost of the
// identical plan (say, after a client restart) is a no-op. A store
// persists it like any figure's, and a resumed run picks up a stored
// child's journal only when it carries the identical plan — anything
// else is a stale refinement whose points must not leak into this run.
func (e Executor) submit(ctx context.Context, child *manifest.Manifest) (map[int]nocsim.Result, error) {
	switch {
	case e.Client != nil:
		return nil, e.Client.AddManifest(ctx, child)
	case e.Store == nil:
		return nil, nil
	case e.Resume:
		return e.Store.SaveOrResume(child)
	}
	return nil, e.Store.SaveManifest(child)
}

// ErrIncomplete is returned by Generate when the executor's point limit
// stopped a pass short: the points computed so far are on record and a
// resumed run finishes the figure, but there are no tables yet.
var ErrIncomplete = errors.New("sweep: point limit reached before the figure was complete")

// AdaptiveStats reports what a run actually simulated, so the CLI can
// print the budget arithmetic ("18 coarse + 6 refined vs 54 fixed") and
// the acceptance tests can assert the ≥3× saving.
type AdaptiveStats struct {
	CoarsePoints  int    // points in the figure's own manifest
	RefinedPoints int    // points simulated by the refinement pass (0 when none was worth running)
	ChildName     string // refinement manifest name ("" when none was emitted)
}

// Total is the number of points the run simulated.
func (s *AdaptiveStats) Total() int { return s.CoarsePoints + s.RefinedPoints }

// Generate produces the tables of one manifest-backed figure end to end
// on the given executor: open the figure's manifest, run its missing
// points, and render. Because every point is a self-contained
// deterministic job, the tables are byte-identical on every executor, no
// matter how the points were spread across workers — including points
// whose first lease died and was re-issued.
//
// With refineBudget > 0 the figure runs as a two-phase adaptive sweep:
// the planned grid is the coarse pass, Refine estimates from its results
// where the curves bend, the resulting child manifest — at most
// refineBudget extra points — is submitted to and run on the same
// executor, and the tables render the merged load axis. When the coarse
// pass is already smooth enough that nothing clears the refinement
// threshold, the output is byte-identical to a run without refinement.
//
// The child's name derives from the parent plan alone, so a coordinator
// is told to expect it before the coarse pass starts: one running with
// -exit-when-done then keeps its fleet attached through the gap between
// the coarse pass draining and the refinement being posted.
func Generate(ctx context.Context, fig string, o Options, ex Executor, refineBudget int) (tables []Table, stats *AdaptiveStats, err error) {
	m, have, err := ex.Open(ctx, fig, o)
	if err != nil {
		return nil, nil, err
	}
	childName := ""
	if refineBudget > 0 && ex.Client != nil {
		if childName, err = RefineName(m); err != nil {
			return nil, nil, err
		}
		defer func() {
			if err == nil {
				return
			}
			// Withdraw the expectation (a no-op if it never registered, or
			// once the child has been submitted). Best effort, on a fresh
			// context: the surrounding ctx may be the very cancellation
			// that aborted us, and a stranded expectation would hold an
			// -exit-when-done fleet open forever.
			cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = ex.Client.Unexpect(cctx, childName)
		}()
		if err = ex.Client.Expect(ctx, childName); err != nil {
			return nil, nil, err
		}
	}

	results, err := ex.run(ctx, m, have, o.Workers)
	if err != nil {
		return nil, nil, err
	}
	stats = &AdaptiveStats{CoarsePoints: m.NumPoints()}
	var child *manifest.Manifest
	if refineBudget > 0 {
		if child, err = Refine(m, results, refineBudget); err != nil {
			return nil, nil, err
		}
	}
	if child == nil {
		if childName != "" { // expected, and not coming
			if err = ex.Client.Unexpect(ctx, childName); err != nil {
				return nil, nil, err
			}
		}
		tables, err = Render(m, results)
		return tables, stats, err
	}
	stats.ChildName = child.Name
	stats.RefinedPoints = child.NumPoints()

	childHave, err := ex.submit(ctx, child)
	if err != nil {
		return nil, nil, err
	}
	childResults, err := ex.run(ctx, child, childHave, o.Workers)
	if err != nil {
		return nil, nil, err
	}
	merged, mergedResults, err := MergeRefined(m, results, child, childResults)
	if err != nil {
		return nil, nil, err
	}
	tables, err = Render(merged, mergedResults)
	return tables, stats, err
}
