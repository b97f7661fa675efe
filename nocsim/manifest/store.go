package manifest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/jsonline"
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
	slices.Sort(names)
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

// LoadPoints reads a manifest's completed points: every record of the
// journal, under ScanRecords' one rule for what a record is.
func (st *DirStore) LoadPoints(name string) (map[int]nocsim.Result, error) {
	have := make(map[int]nocsim.Result)
	_, err := ScanRecords(st.PointsPath(name), 0, func(_ []byte, rec *Record) error {
		have[rec.Index] = rec.Result
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("manifest: points %w", err)
	}
	return have, nil
}

// A Journal is an open, crash-safe appender for one manifest's points
// file. Each Append writes one Record line through a buffered writer,
// flushes it, and fsyncs the file before returning, so a line either
// reaches the disk whole or — if the process dies mid-write — is left as
// an unterminated tail that is no record to LoadPoints (see ScanRecords)
// and that the next Journal truncates away.
// Append is safe for concurrent use.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	enc *json.Encoder // writes into w
	rec Record        // the record enc is encoding, held here and not boxed anew for each line
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
	j := &Journal{f: f, w: bufio.NewWriter(f)}
	j.enc = json.NewEncoder(j.w)
	return j, nil
}

// Append records one completed point: encode, write, flush, sync. The
// line is json.Marshal's encoding of the Record and a newline, encoded
// straight into the journal's buffered writer. When Append returns nil
// the line is durable; when it returns an error the journal may hold a
// torn tail, which readers skip.
func (j *Journal) Append(i int, r nocsim.Result) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec = Record{Index: i, Result: r}
	err := j.enc.Encode(&j.rec) // writes nothing unless the whole value encodes
	j.rec = Record{}
	if err != nil {
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

// tailBlock is how much of a file TruncatePartialTail reads at a time,
// walking back from the end to the last newline.
const tailBlock = 16 << 10

// TruncatePartialTail cuts an append-only record file back to its last
// complete (newline-terminated) line — the crash-recovery step shared by
// the points Journal and the results store, and the writer's half of
// ScanRecords' rule: what it cuts is exactly what a scan ignores. A
// missing file is fine; so is a healthy one — the common case costs one
// stat and one 1-byte read. A torn tail is searched backwards in blocks
// of tailBlock bytes, so the cost is the tail's length, not the file's.
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
	buf := make([]byte, min(size, tailBlock))
	end := size - 1 // the bytes before end are still to search
	for end > 0 {
		n := min(end, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			return f.Truncate(end - n + int64(i) + 1)
		}
		end -= n
	}
	return f.Truncate(0)
}

const (
	scanBatch = 1024     // lines read, then decoded together: bounds what a scan holds, and long enough (~2 ms at 1.8–2.2 µs a point line, -cpu 1) to outlast a sleeping core's wake-up
	scanShare = 8        // fewest lines worth a goroutine of their own
	scanChunk = 64 << 10 // bytes a read buffer holds, unless a line needs more
)

// decoded is one line's decoding outcome.
type decoded[T any] struct {
	rec T
	err error
}

// ScanRecords is the one reader of the line-per-record files (the points
// journals here, the results store's file). It reads path from byte
// offset off and calls fn, serially and in file order, with each record's
// line (newline included, fn's to keep) and the T decoded from it (valid
// during the call only). It returns the offset after the last record fn
// accepted, where a later scan resumes. A missing file holds no records.
//
// A record exists if and only if its line ends in a newline. Bytes after
// the last newline — a write in flight, or the torn tail that
// TruncatePartialTail cuts — are neither parsed nor consumed. A
// terminated line that does not decode, or that fn rejects, is an error
// naming path and the line's offset, wherever it sits. Lines may be any
// length.
//
// What a line decodes to is what json.Unmarshal makes of it. A line in
// the form json.Marshal writes for a Record, or for a T with a
// DecodeLine method, is decoded without reflection, seven to eight
// times faster (internal/jsonline); any other line — another key order,
// whitespace, an unknown key, a legacy file — falls back to
// json.Unmarshal, so error texts are json.Unmarshal's too.
//
// The file is read into buffers of about scanChunk bytes that are never
// reused, and the lines are slices of them: a kept line costs no copy,
// and keeps the rest of its buffer alive. Each batch of scanBatch lines
// is decoded on up to GOMAXPROCS goroutines: a file is read back at the
// speed of every core.
func ScanRecords[T any](path string, off int64, fn func(line []byte, rec *T) error) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return off, nil
	}
	if err != nil {
		return off, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return off, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return off, err
	}
	rd := lineReader{r: f, left: info.Size() - off}
	var lines [][]byte
	var out []decoded[T]
	for {
		lines = lines[:0]
		for len(lines) < scanBatch {
			line, err := rd.line()
			if err != nil {
				return off, err
			}
			if line == nil {
				break
			}
			lines = append(lines, line)
		}
		if len(lines) == 0 {
			return off, nil
		}
		out = slices.Grow(out[:0], len(lines))[:len(lines)]
		clear(out) // Unmarshal into a used T would write through what fn copied out of it
		decodeLines(lines, out)
		for i, line := range lines {
			err := out[i].err
			if err == nil {
				err = fn(line, &out[i].rec)
			}
			if err != nil {
				return off, fmt.Errorf("%s at offset %d: %w", path, off, err)
			}
			off += int64(len(line))
		}
	}
}

// lineReader splits what r holds into newline-terminated lines without
// copying them one by one: it reads into buffers it never reuses, so a
// line it returns stays intact for good.
type lineReader struct {
	r    io.Reader
	left int64  // bytes r held when the scan began and has not yet given
	buf  []byte // the current buffer: buf[next:] is read and not yet returned
	next int
	seen int // buf[next:seen] holds no newline
	eof  bool
}

// line returns the next line, newline included, or nil once r holds no
// further complete line.
func (lr *lineReader) line() ([]byte, error) {
	for {
		if i := bytes.IndexByte(lr.buf[lr.seen:], '\n'); i >= 0 {
			end := lr.seen + i + 1
			line := lr.buf[lr.next:end:end]
			lr.next, lr.seen = end, end
			return line, nil
		}
		lr.seen = len(lr.buf)
		if lr.eof {
			return nil, nil
		}
		if err := lr.fill(); err != nil {
			return nil, err
		}
	}
}

// fill reads more of r. A full buffer is first replaced by a new one,
// sized to what r has left, that starts with the old one's unreturned
// bytes and has room for as many again.
func (lr *lineReader) fill() error {
	if len(lr.buf) == cap(lr.buf) {
		rest := lr.buf[lr.next:]
		buf := make([]byte, len(rest), max(2*len(rest)+512, int(min(lr.left+512, scanChunk))))
		copy(buf, rest)
		lr.buf, lr.next, lr.seen = buf, 0, len(rest)
	}
	n, err := lr.r.Read(lr.buf[len(lr.buf):cap(lr.buf)])
	lr.buf = lr.buf[:len(lr.buf)+n]
	lr.left -= int64(n)
	if err == io.EOF {
		lr.eof = true
		return nil
	}
	return err
}

// decodeLines decodes lines[i] into out[i]. The caller decodes too,
// joined by one goroutine per scanShare lines up to GOMAXPROCS in all,
// each taking the next undecoded line.
func decodeLines[T any](lines [][]byte, out []decoded[T]) {
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(lines)); i = next.Add(1) - 1 {
			out[i].err = decodeLine(lines[i], &out[i].rec)
		}
	}
	var wg sync.WaitGroup
	for n := min(runtime.GOMAXPROCS(0), len(lines)/scanShare); n > 1; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// A lineDecoder is a record type that decodes the lines json.Marshal
// writes for it by itself, reporting false for any other line.
type lineDecoder interface {
	DecodeLine(line []byte) bool
}

// decodeLine decodes one newline-terminated line into the zero *rec: by
// the record's own decoder when it has one (a Record has jsonline's)
// and the line is in the form json.Marshal writes, by json.Unmarshal
// otherwise. Both give the same value for a line both accept.
func decodeLine[T any](line []byte, rec *T) error {
	body := line[:len(line)-1]
	switch p := any(rec).(type) {
	case *Record:
		d := jsonline.New(body)
		d.Record(&p.Index, &p.Result)
		if d.Done() {
			return nil
		}
	case lineDecoder:
		if p.DecodeLine(body) {
			return nil
		}
	default:
		return json.Unmarshal(line, rec)
	}
	var zero T
	*rec = zero // what the declined decoder filled in
	return json.Unmarshal(line, rec)
}
