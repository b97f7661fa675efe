// Package results is the persistent, queryable results layer behind the
// results service: one single-file store holding every completed
// simulation point of every plan ever ingested, as the durable source of
// truth that many readers can query concurrently while sweeps are still
// running.
//
// The container ships no database, so the store is built on the same
// line-per-record JSON codec as the manifest journals: an append-only
// file of records — each either a full manifest (a plan, identified by
// its manifest.Sum fingerprint) or one completed point of a plan — read
// back by the journals' own reader (manifest.ScanRecords: a record is
// complete at its newline and anything after the last newline is no
// record yet), with one flush and fsync per AddManifest and AddPoint and
// one per imported plan, and an in-memory index (by plan, by name, by
// point) rebuilt on open. A point line in the form json.Marshal writes is
// decoded without reflection (internal/jsonline); any other line goes to
// json.Unmarshal. A plan holds its points once each, in one slice kept in
// index order: a point after the last one is appended, as every point of
// a file a serial run, an import or a Compact wrote is, and any other is
// inserted. Nothing sorts or copies a result per query beyond what the
// query returns. The index keeps every record's stored line beside its
// decoded value, and the way out copies stored bytes instead of encoding
// again: Compact writes the manifest and point lines as they are, and
// ExportJournal writes the journal Record sliced out of each point line
// at the offset recorded when the line was decoded or appended — a line
// the fast path declined has its Record found by matching brackets, and
// only a point whose envelope is in another form is encoded again. The
// query contract, not the storage engine, is the interface: filter points
// by manifest/panel/policy/pattern/app/mesh/load, fetch a plan's complete
// result set for rendering, and export a plan back out as a
// byte-identical points journal.
//
// Concurrency model: exactly one writer may have the file open
// read-write (the queue coordinator ingesting live results, or a
// backfill import); any number of read-only stores may follow the same
// file concurrently, picking up newly appended records with Refresh.
// A read-only open never truncates the live writer's torn tail — it
// simply stops at the last complete line and resumes there.
package results

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"

	"repro/internal/jsonline"
	"repro/nocsim"
	"repro/nocsim/manifest"
)

// record is one line of the store file. Exactly one of Manifest and
// Point is set, per Kind.
type record struct {
	// Kind is "manifest" (a plan registration) or "point" (one completed
	// point of a previously registered plan).
	Kind string `json:"kind"`
	// Sum is the plan fingerprint (manifest.Sum) the record belongs to.
	Sum string `json:"sum"`
	// Manifest is the full plan, for kind "manifest".
	Manifest *manifest.Manifest `json:"manifest,omitempty"`
	// Point is the completed point in exactly the journal's Record form,
	// for kind "point" — which is what makes exporting a plan back out as
	// a points journal byte-identical.
	Point *manifest.Record `json:"point,omitempty"`
}

// scanned is what the store's scan decodes a line to: the record, and
// where the point's Record starts in the line when the fast path read it
// (0 otherwise). The offset stays out of record, the value the line means.
type scanned struct {
	record
	at    int
	point manifest.Record // what Point points to when the fast path read the line
}

// DecodeLine decodes a point record's line (without its newline) in the
// form json.Marshal writes, without reflection, and reports false for any
// other line — a manifest record among them — leaving it to
// json.Unmarshal (see manifest.ScanRecords). A line it accepts ends with
// the Record, right before the envelope's closing brace.
func (s *scanned) DecodeLine(line []byte) bool {
	d := jsonline.New(line)
	d.Open()
	d.Need("kind")
	s.Kind = d.Str()
	d.Need("sum")
	s.Sum = d.Str()
	d.Need("point")
	s.at = d.Offset()
	s.Point = &s.point
	d.Record(&s.point.Index, &s.point.Result)
	d.Close()
	return d.Done()
}

// UnmarshalJSON decodes a line the fast path declined exactly as a
// record, error texts included.
func (s *scanned) UnmarshalJSON(b []byte) error {
	return json.Unmarshal(b, &s.record)
}

const (
	kindManifest = "manifest"
	kindPoint    = "point"
)

// plan is the in-memory index of one ingested manifest. Each stored point
// is one slot of points, which are in index order.
type plan struct {
	sum    string
	m      *manifest.Manifest
	line   []byte // the manifest record's file line, which Compact writes back
	offs   []int  // panel offsets, for point → panel label resolution
	points []point
}

// point is one stored point: its index, its result and the file line
// (newline included) that holds it, which is what Compact writes back and
// what ExportJournal copies the Record out of — from byte at to the line's
// closing brace, or wherever recordIn finds it when at is 0.
type point struct {
	index int
	line  []byte
	at    int
	r     nocsim.Result
}

// minPointLine is fewer bytes than any point line this program writes:
// the envelope and the Result's keys alone take more. A plan read from a
// file presizes its slots for the points its manifest claims, but all the
// plans one read meets together never presize more slots than the file's
// unread bytes could hold at this size — a manifest line can claim a
// million points over a file that holds two. Points past the presize are
// appended.
const minPointLine = 512

// newPlan indexes a manifest record, presizing its slots for the points
// it claims out of the room (in slots) left, which it reduces by as many.
func newPlan(sum string, m *manifest.Manifest, line []byte, room *int) *plan {
	p := &plan{sum: sum, m: m, line: line, offs: m.Offsets()}
	n := min(p.total(), *room)
	*room -= n
	p.points = make([]point, 0, n)
	return p
}

// total returns how many points the plan has: m.NumPoints().
func (p *plan) total() int { return p.offs[len(p.offs)-1] }

// find returns where point i is in points, or where it would go, and
// whether it is there. A point past the last one needs no search.
func (p *plan) find(i int) (int, bool) {
	n := len(p.points)
	if n == 0 || p.points[n-1].index < i {
		return n, false
	}
	k := sort.Search(n, func(k int) bool { return p.points[k].index >= i })
	return k, p.points[k].index == i
}

// add stores point i unless the plan holds it already: the first result
// for an index wins, like the journal. A point before the last one is
// inserted, moving every slot after it; a coordinator leases the lowest
// free index first, so a late point is behind only those leased while it
// ran.
func (p *plan) add(i int, r *nocsim.Result, line []byte, at int) {
	k, ok := p.find(i)
	if ok {
		return
	}
	pt := point{index: i, line: line, at: at, r: *r}
	if k == len(p.points) {
		p.points = append(p.points, pt)
	} else {
		p.points = slices.Insert(p.points, k, pt)
	}
}

// PlanInfo summarizes one stored plan for listings and the dashboard.
type PlanInfo struct {
	Sum    string `json:"sum"`
	Name   string `json:"name"`
	Quick  bool   `json:"quick,omitempty"`
	Points int    `json:"points"`
	Seed   int64  `json:"seed"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	// Complete reports whether every point of the plan is stored — the
	// precondition for rendering its tables.
	Complete bool `json:"complete"`
}

// Store is the single-file results store. All methods are safe for
// concurrent use.
type Store struct {
	path     string
	readOnly bool

	mu    sync.Mutex
	f     *os.File // nil in read-only mode and after Close
	w     *bufio.Writer
	off   int64               // bytes of the file consumed by the index
	lines int                 // point lines among them, duplicates included
	plans map[string]*plan    // keyed by manifest.Sum
	order []string            // sums in first-ingested order
	names map[string][]string // manifest name -> sums in first-ingested order
}

// Open opens (creating if needed) the store for reading and writing:
// the mode for the single ingesting process. Any torn tail a crash left
// behind is truncated before the index is rebuilt.
func Open(path string) (*Store, error) {
	if err := manifest.TruncatePartialTail(path); err != nil {
		return nil, err
	}
	s := newStore(path, false)
	if err := s.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	return s, nil
}

// OpenReadOnly opens the store as a follower: queries only, no appends,
// and never a truncation (the live writer owns the file's tail). A
// missing file is an empty store; Refresh picks the records up once the
// writer creates it.
func OpenReadOnly(path string) (*Store, error) {
	s := newStore(path, true)
	if err := s.replay(); err != nil {
		return nil, err
	}
	return s, nil
}

func newStore(path string, readOnly bool) *Store {
	return &Store{
		path:     path,
		readOnly: readOnly,
		plans:    map[string]*plan{},
		names:    map[string][]string{},
	}
}

// replay indexes every record of the file from s.off on and advances
// s.off past them. A torn tail (no trailing newline yet) is left for the
// next call. Callers hold s.mu (or own the store exclusively, during
// open).
func (s *Store) replay() (err error) {
	room := 0 // slots the plans this scan meets may presize, together
	if info, err := os.Stat(s.path); err == nil {
		room = int(max(info.Size()-s.off, 0) / minPointLine)
	}
	s.off, err = manifest.ScanRecords(s.path, s.off, func(line []byte, rec *scanned) error {
		return s.indexLocked(line, &rec.record, rec.at, &room)
	})
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}

// indexLocked folds one record of the file, the line that holds it and
// the offset of a point's Record in that line (0: unknown) into the
// in-memory index. A new plan presizes its slots out of room (see
// newPlan). Callers hold s.mu.
func (s *Store) indexLocked(line []byte, rec *record, at int, room *int) error {
	switch rec.Kind {
	case kindManifest:
		if rec.Manifest == nil || rec.Sum == "" {
			return errors.New("manifest record without manifest or sum")
		}
		if _, ok := s.plans[rec.Sum]; ok {
			return nil // re-ingested plan: first registration stands
		}
		p := newPlan(rec.Sum, rec.Manifest, line, room)
		s.plans[rec.Sum] = p
		s.order = append(s.order, rec.Sum)
		s.names[p.m.Name] = append(s.names[p.m.Name], rec.Sum)
		return nil
	case kindPoint:
		if rec.Point == nil || rec.Sum == "" {
			return errors.New("point record without point or sum")
		}
		p, ok := s.plans[rec.Sum]
		if !ok {
			return fmt.Errorf("point for unregistered plan %s", rec.Sum)
		}
		i := rec.Point.Index
		if i < 0 || i >= p.total() {
			return fmt.Errorf("plan %s point %d out of range [0, %d)", rec.Sum, i, p.total())
		}
		s.lines++
		p.add(i, &rec.Point.Result, line, at)
		return nil
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
}

// appendLocked marshals one record, writes its line and indexes it.
// With sync the line is flushed and fsynced first, so a record this
// store acknowledges is durable; without, the caller owes a syncLocked.
// Callers hold s.mu.
func (s *Store) appendLocked(rec *record, sync bool) error {
	if s.readOnly {
		return errors.New("results: store is read-only")
	}
	if s.f == nil {
		return errors.New("results: store is closed")
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line := append(data, '\n')
	if _, err := s.w.Write(line); err != nil {
		return err
	}
	if sync {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	s.off += int64(len(line))
	return s.indexLocked(line, rec, pointPrefix(line, rec.Sum), new(int))
}

// syncLocked flushes and fsyncs the file. Callers hold s.mu and have
// checked s.f.
func (s *Store) syncLocked() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// AddManifest registers a plan, returning its fingerprint. Re-adding a
// plan already stored (same sum) is a no-op — restarted coordinators and
// repeated backfills converge instead of duplicating.
func (s *Store) AddManifest(m *manifest.Manifest) (string, error) {
	sum, err := manifest.Sum(m)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.plans[sum]; ok {
		return sum, nil
	}
	return sum, s.appendLocked(&record{Kind: kindManifest, Sum: sum, Manifest: m}, true)
}

// AddPoint stores one completed point of a registered plan. The first
// result for a (plan, index) pair wins; a duplicate is acknowledged
// without a second line, so exporting the plan yields each point exactly
// once.
func (s *Store) AddPoint(sum string, index int, r nocsim.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addPointLocked(sum, index, r, true)
}

// addPointLocked is AddPoint under s.mu, with appendLocked's sync.
func (s *Store) addPointLocked(sum string, index int, r nocsim.Result, sync bool) error {
	p, ok := s.plans[sum]
	if !ok {
		return fmt.Errorf("results: point for unregistered plan %s", sum)
	}
	if index < 0 || index >= p.total() {
		return fmt.Errorf("results: plan %s point %d out of range [0, %d)", sum, index, p.total())
	}
	if _, ok := p.find(index); ok {
		return nil
	}
	return s.appendLocked(&record{Kind: kindPoint, Sum: sum, Point: &manifest.Record{Index: index, Result: r}}, sync)
}

// Refresh folds in any records other processes appended since the last
// open or Refresh — the read-only follower's poll. On a writable store
// it is a cheap no-op (the writer's own appends are already indexed).
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.readOnly {
		return nil
	}
	return s.replay()
}

// Plans lists the stored plans in first-ingested order.
func (s *Store) Plans() []PlanInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PlanInfo, 0, len(s.order))
	for _, sum := range s.order {
		out = append(out, s.plans[sum].info())
	}
	return out
}

func (p *plan) info() PlanInfo {
	total := p.total()
	return PlanInfo{
		Sum: p.sum, Name: p.m.Name, Quick: p.m.Quick, Points: p.m.Points, Seed: p.m.Seed,
		Total: total, Done: len(p.points), Complete: len(p.points) == total,
	}
}

// Manifest returns a stored plan by fingerprint.
func (s *Store) Manifest(sum string) (*manifest.Manifest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.plans[sum]
	if !ok {
		return nil, false
	}
	return p.m, true
}

// Resolve maps a plan reference — a fingerprint, or a manifest name —
// to a stored plan's fingerprint. A name picks the most recently
// ingested plan with that name (new plans supersede old ones in the
// service's eyes; older ones stay addressable by sum).
func (s *Store) Resolve(ref string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.plans[ref]; ok {
		return ref, true
	}
	sums := s.names[ref]
	if len(sums) == 0 {
		return "", false
	}
	return sums[len(sums)-1], true
}

// Complete returns the plan's manifest and how many of its points are
// stored, and — once every one of them is — a copy of their results in
// point order, the flat list sweep.Render takes. Rendering a plan's
// tables starts here.
func (s *Store) Complete(sum string) (m *manifest.Manifest, flat []nocsim.Result, done int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.plans[sum]
	if !ok {
		return nil, nil, 0, false
	}
	done = len(p.points)
	if done < p.total() {
		return p.m, nil, done, true
	}
	flat = make([]nocsim.Result, done)
	for k := range p.points {
		flat[k] = p.points[k].r
	}
	return p.m, flat, done, true
}

// ExportJournal writes the plan's points, in index order, in exactly
// the manifest journal's line format — the byte-identical way back out
// of the store: exporting a plan that was imported from a (serially
// written) journal reproduces that journal byte for byte. Each line is
// the Record copied out of the point's stored line: sliced at the offset
// its decode (or its append) recorded, or found by recordIn in a line the
// fast path declined. Only a stored line whose envelope is not the one
// json.Marshal writes has its Record encoded again.
func (s *Store) ExportJournal(w io.Writer, sum string) error {
	s.mu.Lock()
	p, ok := s.plans[sum]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("results: unknown plan %s", sum)
	}
	pts := p.points
	recs := make([][]byte, len(pts))
	for k := range pts {
		pt := &pts[k]
		if pt.at > 0 {
			recs[k] = pt.line[pt.at : len(pt.line)-2]
		} else {
			recs[k] = recordIn(pt.line, sum)
		}
		if recs[k] == nil {
			var err error
			if recs[k], err = json.Marshal(manifest.Record{Index: pt.index, Result: pt.r}); err != nil {
				s.mu.Unlock()
				return err
			}
		}
	}
	s.mu.Unlock()
	bw := bufio.NewWriterSize(w, outBuffer)
	for _, rec := range recs {
		if _, err := bw.Write(rec); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// recordIn returns the Record within a stored point line of plan sum when
// the line's envelope is the one json.Marshal writes,
// {"kind":"point","sum":"<sum>","point":<Record>}, and nil otherwise (a
// sum Marshal had to escape, another key order, a key after the point).
// The line decoded, so it is one valid JSON object: the Record is the
// object after the prefix, found by matching brackets outside strings.
func recordIn(line []byte, sum string) []byte {
	n := pointPrefix(line, sum)
	if n == 0 {
		return nil
	}
	depth := 0
	for i := n; i < len(line); i++ {
		switch line[i] {
		case '"':
			for i++; i < len(line) && line[i] != '"'; i++ {
				if line[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				if i+1 != len(line)-2 {
					return nil
				}
				return line[n : i+1]
			}
		}
	}
	return nil
}

// pointPrefix returns the length of the envelope json.Marshal writes
// before the Record of a point line of plan sum,
// {"kind":"point","sum":"<sum>","point":, when line starts with it and
// ends in a closing brace and newline, and 0 otherwise.
func pointPrefix(line []byte, sum string) int {
	const head, mid = `{"kind":"point","sum":"`, `","point":`
	n := len(head) + len(sum) + len(mid)
	if len(line) < n+3 || string(line[:len(head)]) != head || string(line[len(head):len(head)+len(sum)]) != sum ||
		string(line[len(head)+len(sum):n]) != mid || line[n] != '{' || string(line[len(line)-2:]) != "}\n" {
		return 0
	}
	return n
}

// outBuffer is the write buffer of the store's two bulk writers, Compact
// and ExportJournal: a 3,000-point plan is about 3 MB, 750 writes through
// bufio's default 4 KiB and 48 through this.
const outBuffer = 64 << 10

// Compact rewrites the store file down to its live contents: for every
// manifest name only the most recently ingested plan survives (older
// same-name plans are superseded — Resolve already ignores them), and
// every surviving plan is written as its manifest record followed by its
// points in index order — each the line the file already holds, copied
// rather than re-encoded — which drops duplicate point lines the index
// collapsed on ingest. Queries and ExportJournal answer identically
// before and after; only dead bytes leave the file.
//
// Compact requires the writable store and must not run while read-only
// followers are attached: the rewrite replaces the file they are
// tailing, and their saved offsets would point into the old bytes. Run
// it from the one-shot maintenance mode (resultsd -compact), like
// imports.
func (s *Store) Compact() (droppedPlans, droppedPoints int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return 0, 0, errors.New("results: store is read-only")
	}
	if s.f == nil {
		return 0, 0, errors.New("results: store is closed")
	}
	if err := s.syncLocked(); err != nil {
		return 0, 0, err
	}

	keep := map[string]bool{}
	for _, sums := range s.names {
		keep[sums[len(sums)-1]] = true
	}

	tmp := s.path + ".compact"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, err
	}
	done := false
	defer func() {
		if !done {
			tf.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(tf, outBuffer)
	var written int64
	keptPoints := 0
	for _, sum := range s.order {
		if !keep[sum] {
			continue
		}
		p := s.plans[sum]
		n, err := bw.Write(p.line)
		written += int64(n)
		if err != nil {
			return 0, 0, err
		}
		for k := range p.points {
			n, err := bw.Write(p.points[k].line)
			written += int64(n)
			if err != nil {
				return 0, 0, err
			}
			keptPoints++
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, err
	}
	if err := tf.Sync(); err != nil {
		return 0, 0, err
	}
	if err := tf.Close(); err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return 0, 0, err
	}
	done = true

	// Swap the append handle onto the new file; the old handle still
	// points at the replaced (unlinked) bytes.
	old := s.f
	s.f = nil
	old.Close()
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, 0, err
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	s.off = written
	droppedPoints = s.lines - keptPoints
	s.lines = keptPoints

	order := make([]string, 0, len(keep))
	plans := make(map[string]*plan, len(keep))
	names := make(map[string][]string, len(keep))
	for _, sum := range s.order {
		if !keep[sum] {
			droppedPlans++
			continue
		}
		p := s.plans[sum]
		order = append(order, sum)
		plans[sum] = p
		names[p.m.Name] = append(names[p.m.Name], sum)
	}
	s.order, s.plans, s.names = order, plans, names
	return droppedPlans, droppedPoints, nil
}

// Sync flushes and fsyncs the file (writable stores only).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly || s.f == nil {
		return nil
	}
	return s.syncLocked()
}

// Close flushes, fsyncs and closes the store. Closing twice (or closing
// a read-only store) is a no-op, so shutdown paths can close defensively.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly || s.f == nil {
		return nil
	}
	err := s.syncLocked()
	f := s.f
	s.f = nil
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
