package manifest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/nocsim"
)

// journalLines returns n encoded Record lines. Indexes repeat every 600
// lines with a different result, so the larger files hold duplicates
// whose winner depends on the order records are delivered in.
func journalLines(t *testing.T, n int) [][]byte {
	t.Helper()
	lines := make([][]byte, n)
	r := nocsim.Result{Scenario: testBase(t)}
	for i := range lines {
		r.AvgDelayNs = float64(i + 1)
		data, err := json.Marshal(Record{Index: i % 600, Result: r})
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = append(data, '\n')
	}
	return lines
}

// TestLoadPointsOneTornTailRule pins the two cases in which LoadPoints,
// Journal and the results store used to disagree about where a journal
// ends, each of which lost data.
func TestLoadPointsOneTornTailRule(t *testing.T) {
	lines := journalLines(t, 2)

	// (a) A last line that is complete JSON but has no newline yet is what
	// the next Journal cuts, so it must not count as done now: the
	// restarted coordinator would never re-run it and never journal it.
	t.Run("unterminated complete line is no record", func(t *testing.T) {
		st, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		data := append(bytes.Clone(lines[0]), bytes.TrimSuffix(lines[1], []byte("\n"))...)
		if err := os.WriteFile(st.PointsPath("x"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before, err := st.LoadPoints("x")
		if err != nil {
			t.Fatal(err)
		}
		j, err := st.Journal("x")
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := st.LoadPoints("x")
		if err != nil {
			t.Fatal(err)
		}
		if len(before) != 1 || len(after) != 1 {
			t.Fatalf("loaded %d points, %d after reopening the journal; want 1 and 1", len(before), len(after))
		}
	})

	// (b) A newline-terminated line that does not decode is an error at
	// once, with its offset — not forgiven while it is last and fatal to
	// the whole journal after the next append.
	t.Run("terminated corrupt line is an error wherever it sits", func(t *testing.T) {
		st, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		data := append(bytes.Clone(lines[0]), "{\"index\":1,\"result\":{\"avg_del\n"...)
		if err := os.WriteFile(st.PointsPath("x"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%s at offset %d:", st.PointsPath("x"), len(lines[0]))
		if _, err := st.LoadPoints("x"); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("corrupt last line: err = %v, want one naming %q", err, want)
		}
		j, err := st.Journal("x")
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(1, nocsim.Result{}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.LoadPoints("x"); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("corrupt mid-file line: err = %v, want the same %q", err, want)
		}
	})
}

// scanShapes are the file lengths, in lines, that put a batch edge
// everywhere it can fall.
var scanShapes = []int{0, 1, scanBatch - 1, scanBatch, scanBatch + 1, 3*scanBatch + 7}

// TestScanRecordsSameOnEveryCoreCount reads files of every shape — clean,
// with an unterminated tail, with a corrupt line on each side of each
// batch edge — under GOMAXPROCS 1, 2 and 8 and requires the same map or
// the same error at the same offset, equal to what a serial read of the
// lines gives.
func TestScanRecordsSameOnEveryCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	all := journalLines(t, scanShapes[len(scanShapes)-1])
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range scanShapes {
		corrupt := []int{-1} // -1: none
		for _, at := range []int{0, scanBatch - 1, scanBatch, 3 * scanBatch, n - 1} {
			if at >= 0 && at < n {
				corrupt = append(corrupt, at)
			}
		}
		for _, bad := range corrupt {
			tails := []string{"", `{"index":9999,"result":{}}`, `{"index":9999,"resu`}
			if bad >= 0 {
				tails = tails[1:2] // the tail rule does not depend on where the scan stops
			}
			for _, tail := range tails {
				name := fmt.Sprintf("lines%d-bad%d-tail%d", n, bad, len(tail))
				var file bytes.Buffer
				want := map[int]nocsim.Result{}
				wantOff, failed := int64(0), false
				for i, line := range all[:n] {
					if i == bad {
						line = []byte("{\"index\":7,\"result\":\n")
						failed = true
					}
					file.Write(line)
					if !failed {
						var rec Record
						if err := json.Unmarshal(line, &rec); err != nil {
							t.Fatal(err)
						}
						want[rec.Index] = rec.Result
						wantOff += int64(len(line))
					}
				}
				file.WriteString(tail)
				if err := os.WriteFile(st.PointsPath(name), file.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				wantErr := fmt.Sprintf("%s at offset %d:", st.PointsPath(name), wantOff)
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					have, err := st.LoadPoints(name)
					if failed != (err != nil) || (failed && !strings.Contains(err.Error(), wantErr)) {
						t.Fatalf("%s procs=%d: err = %v, want failure=%v %q", name, procs, err, failed, wantErr)
					}
					if !failed && !reflect.DeepEqual(have, want) {
						t.Fatalf("%s procs=%d: LoadPoints returned %d points, want %d (or values differ)", name, procs, len(have), len(want))
					}
				}
				// What LoadPoints drops on failure and never returns: the
				// records delivered before the bad line, and where they end.
				got := map[int]nocsim.Result{}
				off, _ := ScanRecords(st.PointsPath(name), 0, func(_ []byte, rec *Record) error {
					got[rec.Index] = rec.Result
					return nil
				})
				if off != wantOff || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: consumed %d bytes and %d points, want %d and %d (or values differ)", name, off, len(got), wantOff, len(want))
				}
			}
		}
	}
}

// TestScanRecordsResumesAndKeepsLines covers the rest of the contract:
// a scan from an offset sees only the records after it, the lines handed
// to the callback are the file's bytes and stay intact once the scan has
// moved on, a line longer than any buffer is one record, and a callback
// error stops the scan at that record's offset.
func TestScanRecordsResumesAndKeepsLines(t *testing.T) {
	lines := journalLines(t, scanBatch+3)
	r := nocsim.Result{Scenario: testBase(t)}
	r.Scenario.App = strings.Repeat("x", 200<<10) // one line well past the reader's 64 KB
	long, err := json.Marshal(Record{Index: 5000, Result: r})
	if err != nil {
		t.Fatal(err)
	}
	lines[scanBatch/2] = append(long, '\n')
	path := t.TempDir() + "/x.jsonl"
	file := bytes.Join(lines, nil)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	var kept [][]byte
	off, err := ScanRecords(path, 0, func(line []byte, _ *Record) error {
		kept = append(kept, line)
		return nil
	})
	if err != nil || off != int64(len(file)) {
		t.Fatalf("scan = (%d, %v), want (%d, nil)", off, err, len(file))
	}
	if !bytes.Equal(bytes.Join(kept, nil), file) {
		t.Fatal("the lines the callback kept are not the file's bytes")
	}

	from := int64(len(file) - len(lines[len(lines)-1]))
	seen := 0
	if off, err = ScanRecords(path, from, func([]byte, *Record) error { seen++; return nil }); err != nil || off != int64(len(file)) || seen != 1 {
		t.Fatalf("scan from %d = (%d, %v) over %d records, want (%d, nil) over 1", from, off, err, seen, len(file))
	}

	stop := fmt.Errorf("stop here")
	off, err = ScanRecords(path, 0, func(_ []byte, rec *Record) error {
		if rec.Index == 2 {
			return stop
		}
		return nil
	})
	if want := int64(len(lines[0]) + len(lines[1])); off != want || !strings.Contains(fmt.Sprint(err), fmt.Sprintf("at offset %d: stop here", want)) {
		t.Fatalf("scan stopped by its callback = (%d, %v), want offset %d", off, err, want)
	}
}

// TestLoadPointsReadsEveryForm: lines json.Marshal did not write — keys
// out of order, spaces, a key this program does not know, one a reader
// matches case-insensitively, a trace of samples — decline the fast path
// after it filled part of the record, and load exactly as json.Unmarshal
// reads them, next to canonical lines.
func TestLoadPointsReadsEveryForm(t *testing.T) {
	r := nocsim.Result{Scenario: testBase(t)}
	r.AvgDelayNs = 12.5
	r.Trace = []nocsim.TraceSample{{TimeNs: 1, FreqHz: 2, Volts: 3, DelayNs: 4}}
	canonical, err := json.Marshal(Record{Index: 0, Result: r})
	if err != nil {
		t.Fatal(err)
	}
	forms := [][]byte{
		canonical,
		bytes.Replace(canonical, []byte(`{"index":0,`), []byte(`{"index":1, `), 1),
		bytes.Replace(canonical, []byte(`"meta":{`), []byte(`"step_workers":4,"meta":{`), 1),
		bytes.Replace(canonical, []byte(`"avg_delay_ns":12.5`), []byte(`"AVG_DELAY_NS":99`), 1),
		append(bytes.Replace(canonical[:len(canonical)-1], []byte(`{"index":0,"result":`), []byte(`{"result":`), 1), `,"index":0}`...),
	}
	var file []byte
	want := map[int]nocsim.Result{}
	for i, line := range forms {
		line = bytes.Replace(line, []byte(`"index":0`), []byte(fmt.Sprintf(`"index":%d`, i)), 1)
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("form %d: %v", i, err)
		}
		want[rec.Index] = rec.Result
		file = append(append(file, line...), '\n')
	}
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.PointsPath("x"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadPoints("x")
	if err != nil || len(got) != len(forms) {
		t.Fatalf("LoadPoints = %d points (%v), want %d", len(got), err, len(forms))
	}
	for i := range forms {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("form %d loads as\n%+v\nwant json.Unmarshal's\n%+v", i, got[i], want[i])
		}
	}
}

// TestTruncatePartialTailLongTails cuts torn tails that the backward
// search has to cross block edges for: one longer than a block, newlines
// on either side of a block edge, and files with no newline at all,
// which are cut to nothing.
func TestTruncatePartialTailLongTails(t *testing.T) {
	line := journalLines(t, 1)[0]
	torn := func(n int) []byte { return bytes.Repeat([]byte("x"), n) }
	for _, c := range []struct {
		name       string
		keep, tail []byte
	}{
		{"tail longer than a block", line, torn(2*tailBlock + 17)},
		{"newline first in the first block read", line, torn(tailBlock)},
		{"newline last in the second block read", line, torn(tailBlock + 1)},
		{"newline one byte into the file", []byte("\n"), torn(3 * tailBlock)},
		{"no newline, longer than a block", nil, torn(tailBlock + 1)},
		{"no newline, one byte", nil, torn(1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := t.TempDir() + "/x.points.jsonl"
			if err := os.WriteFile(path, append(bytes.Clone(c.keep), c.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := TruncatePartialTail(path); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, c.keep) {
				t.Fatalf("left %d bytes (%v), want the %d before the tail", len(got), err, len(c.keep))
			}
		})
	}
}
