package results_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/resultsrv"
	"repro/nocsim"
	"repro/nocsim/manifest"
	"repro/nocsim/results"
)

// storeFixture is a 3,000-point plan shaped like the store_replay
// workload's — five panels of 200 loads under three policies, every
// result carrying its resolved scenario — as a journal and as an imported
// store file. Only exported API, so the file also builds against a
// commit whose internals differ.
type storeFixture struct {
	st        *manifest.DirStore
	m         *manifest.Manifest
	points    map[int]nocsim.Result
	storePath string
	store     []byte // the imported store file
}

func newStoreFixture(b *testing.B) *storeFixture {
	b.Helper()
	dir := b.TempDir()
	fx := &storeFixture{m: &manifest.Manifest{Name: "fig7", Points: 200, Seed: 1}, points: map[int]nocsim.Result{}, storePath: filepath.Join(dir, "results.jsonl")}
	for _, pattern := range append([]string{"uniform"}, nocsim.PaperPatterns()...) {
		base := nocsim.Scenario{Pattern: pattern, Seed: 1}.Normalized()
		base.Calibration = &nocsim.Calibration{SaturationRate: 0.4, LambdaMax: 0.36, TargetDelayNs: 150}
		fx.m.Panels = append(fx.m.Panels, manifest.Panel{Label: pattern, Grid: nocsim.Grid{
			Base: base, Loads: nocsim.LoadGrid(0.36, 200), Policies: nocsim.AllPolicies(),
		}})
	}
	var err error
	if fx.st, err = manifest.NewDirStore(filepath.Join(dir, "manifests")); err != nil {
		b.Fatal(err)
	}
	if err := fx.st.SaveManifest(fx.m); err != nil {
		b.Fatal(err)
	}
	j, err := fx.st.Journal(fx.m.Name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < fx.m.NumPoints(); i++ {
		_, sc, err := fx.m.Point(i)
		if err != nil {
			b.Fatal(err)
		}
		x := float64(i%977) / 977
		fx.points[i] = nocsim.Result{
			Scenario: sc,
			Metrics: nocsim.Metrics{
				AvgLatencyCycles: 30 + 200*x, AvgDelayNs: 40.123 + 300*x, P99DelayNs: 120.5 + 900*x,
				Packets: 1000 + int64(i)*17, OfferedRate: sc.Load, Throughput: sc.Load * (0.98 + 0.02*x),
				AvgFreqHz: 0.333e9 + 0.667e9*x, AvgVolts: 0.6 + 0.4*x,
				AvgPowerMW: 20 + 80*x, SwitchingMW: 10 + 40*x, ClockMW: 6 + 24*x, LeakageMW: 4 + 16*x,
				ElapsedNs: 6e4, NetCycles: 30000 + int64(i)*13,
			},
			Meta: nocsim.RunMeta{Seed: sc.Seed, PointIndex: i},
		}
		if err := j.Append(i, fx.points[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	fx.importInto(b, fx.storePath)
	if fx.store, err = os.ReadFile(fx.storePath); err != nil {
		b.Fatal(err)
	}
	return fx
}

func (fx *storeFixture) importInto(b *testing.B, path string) {
	b.Helper()
	s, err := results.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, added, err := s.ImportJournal(fx.m, fx.points); err != nil || added != len(fx.points) {
		b.Fatalf("import = (%d, %v), want %d points", added, err, len(fx.points))
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLoadPoints reads the 3,000-line journal back: what a resumed
// run and a restarted coordinator pay before their first point.
func BenchmarkLoadPoints(b *testing.B) {
	fx := newStoreFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		have, err := fx.st.LoadPoints(fx.m.Name)
		if err != nil || len(have) != len(fx.points) {
			b.Fatalf("LoadPoints = (%d, %v)", len(have), err)
		}
	}
}

// BenchmarkOpenReplay opens the 3,001-line store file: what resultsd and
// a mirroring coordinator pay at start-up.
func BenchmarkOpenReplay(b *testing.B) {
	fx := newStoreFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := results.OpenReadOnly(fx.storePath)
		if err != nil {
			b.Fatal(err)
		}
		if p := s.Plans(); len(p) != 1 || !p[0].Complete {
			b.Fatalf("replayed plans = %+v", p)
		}
	}
}

// BenchmarkCompact rewrites a freshly opened 3,001-line store with nothing
// to drop (the store_replay case); opening it is outside the timer.
func BenchmarkCompact(b *testing.B) {
	fx := newStoreFixture(b)
	path := filepath.Join(b.TempDir(), "results.jsonl")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.WriteFile(path, fx.store, 0o644); err != nil {
			b.Fatal(err)
		}
		s, err := results.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		plans, points, err := s.Compact()
		b.StopTimer()
		if err != nil || plans != 0 || points != 0 {
			b.Fatalf("Compact = (%d, %d, %v)", plans, points, err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkImportJournal imports the 3,000 points into an empty store:
// the backfill, and a coordinator attaching a store to a full journal.
func BenchmarkImportJournal(b *testing.B) {
	fx := newStoreFixture(b)
	path := filepath.Join(b.TempDir(), "results.jsonl")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.importInto(b, path)
		b.StopTimer()
		if err := os.Remove(path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkExportJournal writes the 3,000 points of a freshly opened store
// back out as a points journal: the store's way back out.
func BenchmarkExportJournal(b *testing.B) {
	fx := newStoreFixture(b)
	s, err := results.OpenReadOnly(fx.storePath)
	if err != nil {
		b.Fatal(err)
	}
	sum := s.Plans()[0].Sum
	var out bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := s.ExportJournal(&out, sum); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelect runs the store_replay workload's three queries against
// a freshly opened store: one plan by name and policy, one pattern and
// load band across plans, one capped mesh and panel filter.
func BenchmarkSelect(b *testing.B) {
	fx := newStoreFixture(b)
	s, err := results.OpenReadOnly(fx.storePath)
	if err != nil {
		b.Fatal(err)
	}
	queries := []struct {
		q    results.Query
		hits int
	}{
		{results.Query{Plan: "fig7", Policy: string(nocsim.DMSD)}, 1000},
		{results.Query{Pattern: "tornado", MinLoad: 0.1, MaxLoad: 0.25}, 0},
		{results.Query{Mesh: "5x5", Panel: "uniform", Limit: 200}, 200},
	}
	for i, q := range queries[1:] {
		pts, err := s.Select(q.q)
		if err != nil {
			b.Fatal(err)
		}
		queries[i+1].hits = len(pts) // the load band's count follows the grid
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if pts, err := s.Select(q.q); err != nil || len(pts) != q.hits {
				b.Fatalf("Select(%+v) = (%d, %v), want %d", q.q, len(pts), err, q.hits)
			}
		}
	}
}

// BenchmarkTables renders the 3,000-point plan of a freshly opened store
// through a new results server, cold every time, and formats the tables
// as the service's text reply.
func BenchmarkTables(b *testing.B) {
	fx := newStoreFixture(b)
	s, err := results.OpenReadOnly(fx.storePath)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, hit, err := (&resultsrv.Server{Store: s}).Tables(fx.m.Name)
		if err != nil || hit {
			b.Fatalf("Tables = (hit %v, %v), want a cold render", hit, err)
		}
		if _, err := resultsrv.FormatTables(tables); err != nil {
			b.Fatal(err)
		}
	}
}
