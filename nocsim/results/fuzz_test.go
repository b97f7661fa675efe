package results

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/nocsim"
	"repro/nocsim/manifest"
)

// FuzzReplay damages the two durable files the way a crash or a bad disk
// would — a valid store file and a valid points journal, each followed by
// arbitrary bytes and then cut at an arbitrary length — and requires of
// results.Open, of OpenReadOnly + Refresh and of DirStore.LoadPoints that
// they never panic, never lose a newline-terminated record of the valid
// prefix, never report a point the file does not hold, and fail only over
// a complete line that came from the arbitrary bytes.
func FuzzReplay(f *testing.F) {
	m := testManifest(f, "fig7", 0.1, 0.2)
	sum, err := manifest.Sum(m)
	if err != nil {
		f.Fatal(err)
	}
	store := recordLine(f, &record{Kind: kindManifest, Sum: sum, Manifest: m})
	var journal []byte
	var want []nocsim.Result // as decoded: what a reader of the valid file returns
	for i := 0; i < m.NumPoints(); i++ {
		rec := manifest.Record{Index: i, Result: fakeResult(f, m, i)}
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
		store = append(store, recordLine(f, &record{Kind: kindPoint, Sum: sum, Point: &rec})...)
		var back manifest.Record
		if err := json.Unmarshal(line, &back); err != nil {
			f.Fatal(err)
		}
		want = append(want, back.Result)
	}

	f.Add([]byte(nil), uint16(0xffff))                                                    // both files whole
	f.Add([]byte(nil), uint16(len(journal)-1))                                            // last journal newline missing
	f.Add([]byte(nil), uint16(100))                                                       // cut inside the first line
	f.Add([]byte(`{"kind":"point","sum":"`+sum+`","point":{"ind`), uint16(0xffff))        // torn store append
	f.Add([]byte(`{"index":5,"result":{}}`), uint16(0xffff))                              // complete record, no newline
	f.Add([]byte("{\"index\":1,\"result\":{\"avg_del\n"), uint16(0xffff))                 // terminated garbage
	f.Add([]byte("{\"index\":0,\"result\":{}}\n{\"index\":77,\"res"), uint16(0xffff))     // valid duplicate, then torn
	f.Add(append(bytes.Clone(store[bytes.IndexByte(store, '\n')+1:]), 0), uint16(0xffff)) // every point line again
	f.Add(overclaim(f, 1), uint16(0xffff))                                                // a plan of a million points, two of them stored

	f.Fuzz(func(t *testing.T, tail []byte, cut uint16) {
		dir := t.TempDir()
		// damaged returns valid+tail cut to at most cut bytes, the length of
		// valid's whole lines that survived, how many they are, and whether
		// a whole line of the tail survived too.
		damaged := func(valid []byte) (data []byte, end, lines int, tailLine bool) {
			data = append(bytes.Clone(valid), tail...)
			data = data[:min(int(cut), len(data))]
			end = min(len(data), len(valid))
			end = bytes.LastIndexByte(valid[:end], '\n') + 1
			return data, end, bytes.Count(valid[:end], []byte("\n")), bytes.IndexByte(data[end:], '\n') >= 0
		}
		// check holds a reader's answer against the n points of the valid
		// prefix. Only a whole line of the tail may add to them, replace
		// one (exact is false where the last record for an index wins) or
		// make the reader fail.
		check := func(label string, got map[int]nocsim.Result, err error, n int, tailLine, exact bool) {
			t.Helper()
			if err != nil && !tailLine {
				t.Fatalf("%s failed over a file whose every whole line is valid: %v", label, err)
			}
			if err != nil && got == nil {
				return
			}
			for i := 0; i < n; i++ {
				if r, ok := got[i]; !ok || ((exact || !tailLine) && !reflect.DeepEqual(r, want[i])) {
					t.Fatalf("%s lost or changed point %d of the valid prefix (present: %v)", label, i, ok)
				}
			}
			if !tailLine && len(got) != n {
				t.Fatalf("%s returned %d points from a file that holds %d", label, len(got), n)
			}
		}

		data, end, lines, tailLine := damaged(journal)
		st, err := manifest.NewDirStore(filepath.Join(dir, "manifests"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.PointsPath("fig7"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		have, err := st.LoadPoints("fig7")
		check("LoadPoints", have, err, lines, tailLine, false)

		data, end, lines, tailLine = damaged(store)
		points := max(lines-1, 0) // the first line is the plan
		stored := func(s *Store) map[int]nocsim.Result {
			pts, _ := pointsOf(s, sum)
			if pts == nil {
				pts = map[int]nocsim.Result{}
			}
			return pts
		}

		// The follower meets the file in two halves, like one tailing a
		// live writer.
		path := filepath.Join(dir, "followed.jsonl")
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if ro, err := OpenReadOnly(path); err != nil {
			check("OpenReadOnly", nil, err, 0, tailLine, true)
		} else {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			err := ro.Refresh()
			check("Refresh", stored(ro), err, points, tailLine, true)
		}

		path = filepath.Join(dir, "results.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			check("Open", nil, err, 0, tailLine, true)
		} else {
			check("Open", stored(s), nil, points, tailLine, true)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// Open may cut an unterminated tail and nothing else.
		if kept, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(kept, store[:end]) ||
			len(kept) != bytes.LastIndexByte(data, '\n')+1 {
			t.Fatalf("Open left %d bytes (%v) of a %d-byte file whose whole lines end at %d and whose valid ones at %d",
				len(kept), err, len(data), bytes.LastIndexByte(data, '\n')+1, end)
		}
	})
}
