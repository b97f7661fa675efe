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
// goes through a queue coordinator instead: the coordinator plans,
// journals and derives an adaptive figure's refinement, its fleet
// computes, this process joins as one more worker, and the other fields
// are not used.
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
	if m.Quick != o.Quick || m.Points != o.Points || m.Seed != o.Seed || m.RefineBudget != o.RefineBudget {
		return fmt.Errorf("sweep: %s %s manifest was planned with quick=%v points=%d seed=%d refine-budget=%d, not quick=%v points=%d seed=%d refine-budget=%d; re-run with those options%s",
			whose, m.Name, m.Quick, m.Points, m.Seed, m.RefineBudget, o.Quick, o.Points, o.Seed, o.RefineBudget, otherwise)
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

// refinement returns the child manifest of an adaptive plan m and the
// points on record for it, or nil when there is none. A coordinator has
// derived it before m reads complete, so its answer is final once run
// has returned; locally it is derived here and submitted.
func (e Executor) refinement(ctx context.Context, m *manifest.Manifest, results []nocsim.Result) (*manifest.Manifest, map[int]nocsim.Result, error) {
	if m.RefineBudget <= 0 {
		return nil, nil, nil
	}
	if e.Client != nil {
		name, err := manifest.RefineName(m)
		if err != nil {
			return nil, nil, err
		}
		child, err := e.Client.Manifest(ctx, name)
		if errors.Is(err, queue.ErrUnknownManifest) {
			return nil, nil, nil
		}
		return child, nil, err
	}
	child, err := manifest.Refine(m, results, m.RefineBudget)
	if err != nil || child == nil {
		return nil, nil, err
	}
	have, err := e.submit(child)
	return child, have, err
}

// submit puts a locally derived refinement manifest on record and
// returns the points already on record for that same plan. A store
// persists it like any figure's, and a resumed run picks up a stored
// child's journal only when it carries the identical plan — anything
// else is a stale refinement whose points must not leak into this run.
func (e Executor) submit(child *manifest.Manifest) (map[int]nocsim.Result, error) {
	switch {
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
// With o.RefineBudget > 0 the figure runs as a two-phase adaptive
// sweep: the planned grid is the coarse pass, its refinement — the child
// manifest manifest.Refine derives from the coarse results, at most
// RefineBudget extra points — runs on the same executor, and the tables
// render the merged load axis. When the coarse pass is already smooth
// enough that nothing clears the refinement threshold, the output is
// byte-identical to a run without refinement.
func Generate(ctx context.Context, fig string, o Options, ex Executor) ([]Table, *AdaptiveStats, error) {
	m, have, err := ex.Open(ctx, fig, o)
	if err != nil {
		return nil, nil, err
	}
	results, err := ex.run(ctx, m, have, o.Workers)
	if err != nil {
		return nil, nil, err
	}
	stats := &AdaptiveStats{CoarsePoints: m.NumPoints()}
	child, childHave, err := ex.refinement(ctx, m, results)
	if err != nil {
		return nil, nil, err
	}
	if child == nil {
		tables, err := Render(m, results)
		return tables, stats, err
	}
	stats.ChildName = child.Name
	stats.RefinedPoints = child.NumPoints()
	childResults, err := ex.run(ctx, child, childHave, o.Workers)
	if err != nil {
		return nil, nil, err
	}
	merged, mergedResults, err := manifest.MergeRefined(m, results, child, childResults)
	if err != nil {
		return nil, nil, err
	}
	tables, err := Render(merged, mergedResults)
	return tables, stats, err
}
