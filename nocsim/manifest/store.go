package manifest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/nocsim"
)

// DirStore persists manifests and their completed points under one
// directory: <name>.manifest.json holds the resolved grids, and
// <name>.points.jsonl accumulates one completed result per line,
// appended as points finish so an interrupted run keeps everything it
// paid for. The same journal is the queue coordinator's durable state: a
// coordinator restarted over the directory resumes from it.
type DirStore struct {
	Dir string
}

// NewDirStore creates (if needed) and opens a manifest directory.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{Dir: dir}, nil
}

// ManifestPath returns the path of the named manifest file.
func (st *DirStore) ManifestPath(name string) string {
	return filepath.Join(st.Dir, name+".manifest.json")
}

// PointsPath returns the path of the named points journal.
func (st *DirStore) PointsPath(name string) string {
	return filepath.Join(st.Dir, name+".points.jsonl")
}

// Names lists the manifests stored in the directory (every
// <name>.manifest.json), sorted. It is how a backfill over an existing
// manifest directory discovers what there is to ingest.
func (st *DirStore) Names() ([]string, error) {
	entries, err := os.ReadDir(st.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), ".manifest.json"); ok && !e.IsDir() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadManifest reads a stored manifest; it returns (nil, nil) when none
// exists.
func (st *DirStore) LoadManifest(name string) (*Manifest, error) {
	data, err := os.ReadFile(st.ManifestPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: %s: %w", st.ManifestPath(name), err)
	}
	if m.Name == "" {
		// Neither "name" nor the legacy "fig" key: whatever wrote this
		// file, resuming against it would fail much later (render time)
		// with a baffling error.
		return nil, fmt.Errorf("manifest: %s carries no manifest name; re-plan without -resume", st.ManifestPath(name))
	}
	return &m, nil
}

// SaveManifest writes a manifest (atomically, via a rename) and
// truncates any stale points file: a fresh manifest invalidates results
// recorded against an older plan.
func (st *DirStore) SaveManifest(m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := st.ManifestPath(m.Name) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, st.ManifestPath(m.Name)); err != nil {
		return err
	}
	if err := os.Remove(st.PointsPath(m.Name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// SaveOrResume puts a plan derived at run time — an adaptive sweep's
// refinement manifest — on record. When the identical plan (same Sum) is
// already stored, an earlier run journaled the same refinement: its
// completed points are returned instead of being recomputed. A stored
// manifest of that name under any other plan is stale, and saving m
// truncates its points.
func (st *DirStore) SaveOrResume(m *Manifest) (map[int]nocsim.Result, error) {
	stored, err := st.LoadManifest(m.Name)
	if err != nil {
		return nil, err
	}
	if stored != nil {
		storedSum, err := Sum(stored)
		if err != nil {
			return nil, err
		}
		sum, err := Sum(m)
		if err != nil {
			return nil, err
		}
		if storedSum == sum {
			return st.LoadPoints(m.Name)
		}
	}
	return nil, st.SaveManifest(m)
}

// Record is one line of a points journal: the global point index and its
// measured result.
type Record struct {
	Index  int           `json:"index"`
	Result nocsim.Result `json:"result"`
}

// LoadPoints reads a manifest's completed points. A trailing line that
// does not parse (a crash mid-append) is dropped; a malformed line
// elsewhere is an error.
func (st *DirStore) LoadPoints(name string) (map[int]nocsim.Result, error) {
	f, err := os.Open(st.PointsPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return map[int]nocsim.Result{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	have := make(map[int]nocsim.Result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	var parseErr error
	for sc.Scan() {
		if parseErr != nil {
			return nil, fmt.Errorf("manifest: points %s: %w", st.PointsPath(name), parseErr)
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			parseErr = err // fatal only if more lines follow
			continue
		}
		have[rec.Index] = rec.Result
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return have, nil
}

// A Journal is an open, crash-safe appender for one manifest's points
// file. Each Append writes one Record line through a buffered writer,
// flushes it, and fsyncs the file before returning, so a line either
// reaches the disk whole or — if the process dies mid-write — is left as
// a torn tail that LoadPoints skips and the next Journal truncates away.
// Append is safe for concurrent use.
type Journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// Journal opens the manifest's points file for appending, first cutting
// any partial line a crash mid-append left behind — appending after it
// would merge two records into one malformed mid-file line that poisons
// every later LoadPoints. Close the journal when the run finishes.
func (st *DirStore) Journal(name string) (*Journal, error) {
	path := st.PointsPath(name)
	if err := TruncatePartialTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, w: bufio.NewWriter(f)}, nil
}

// Append records one completed point: marshal, write, flush, sync. When
// Append returns nil the line is durable; when it returns an error the
// journal may hold a torn tail, which readers skip.
func (j *Journal) Append(i int, r nocsim.Result) error {
	data, err := json.Marshal(Record{Index: i, Result: r})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close flushes, fsyncs and closes the journal file, so a graceful
// shutdown leaves every accepted line durable even if some Append was
// interrupted between its write and its sync.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// TruncatePartialTail cuts an append-only record file back to its last
// complete (newline-terminated) line — the crash-recovery step shared by
// the points Journal and the results store, which reuse the same
// line-per-record codec. A missing file is fine; so is a healthy one —
// the common case costs one stat and one 1-byte read.
func TruncatePartialTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, size-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return err
	}
	keep := int64(bytes.LastIndexByte(data, '\n') + 1)
	return f.Truncate(keep)
}
