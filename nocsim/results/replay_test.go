package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/nocsim/manifest"
)

// recordLine is the file line the store writes for rec.
func recordLine(t testing.TB, rec *record) []byte {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestReplaySameOnEveryCoreCount is the store's half of the manifest
// package's scanner test: files of every batch-edge shape — a manifest
// line, then point lines whose indexes repeat with different results —
// clean, with an unterminated tail and with a corrupt line on each side of
// each edge, replayed under GOMAXPROCS 1, 2 and 8, must give the index,
// offset, line count and error that indexing the lines one by one gives.
// The first result for an index wins, in file order, whichever goroutine
// decoded its line first.
func TestReplaySameOnEveryCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const batch = 1024 // manifest.scanBatch
	loads := make([]float64, 200)
	for i := range loads {
		loads[i] = 0.001 * float64(i+1)
	}
	m := testManifest(t, "fig7", loads...)
	sum, err := manifest.Sum(m)
	if err != nil {
		t.Fatal(err)
	}
	all := [][]byte{recordLine(t, &record{Kind: kindManifest, Sum: sum, Manifest: m})}
	for i := 0; i < 3*batch+6; i++ {
		r := fakeResult(t, m, i%m.NumPoints())
		r.AvgDelayNs = float64(i + 1)
		all = append(all, recordLine(t, &record{Kind: kindPoint, Sum: sum, Point: &manifest.Record{Index: i % m.NumPoints(), Result: r}}))
	}
	path := filepath.Join(t.TempDir(), "results.jsonl")
	for _, n := range []int{0, 1, batch - 1, batch, batch + 1, 3*batch + 7} {
		corrupt := []int{-1} // -1: none
		for _, at := range []int{0, batch - 1, batch, 3 * batch, n - 1} {
			if at >= 0 && at < n {
				corrupt = append(corrupt, at)
			}
		}
		for _, bad := range corrupt {
			tails := []string{"", `{"kind":"point","sum":"` + sum + `","point":{"index":599,"result":{}}}`, `{"kind":"poi`}
			if bad >= 0 {
				tails = tails[1:2] // the tail rule does not depend on where the scan stops
			}
			for _, tail := range tails {
				name := fmt.Sprintf("lines%d-bad%d-tail%d", n, bad, len(tail))
				var file bytes.Buffer
				want := newStore(path, true)
				var wantErr error
				for i, line := range all[:n] {
					if i == bad {
						line = []byte("{\"kind\":\"point\",\"sum\":\n")
					}
					file.Write(line)
					if wantErr != nil {
						continue
					}
					var rec record
					if wantErr = json.Unmarshal(line, &rec); wantErr == nil {
						wantErr = want.indexLocked(line, &rec, pointPrefix(line, rec.Sum), new(int))
					}
					if wantErr == nil {
						want.off += int64(len(line))
					}
				}
				if (wantErr != nil) != (bad >= 0) {
					t.Fatalf("%s: reference error = %v", name, wantErr)
				}
				file.WriteString(tail)
				if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					got := newStore(path, true)
					err := got.replay()
					if got.off != want.off || got.lines != want.lines || !reflect.DeepEqual(got.order, want.order) ||
						!reflect.DeepEqual(got.names, want.names) || !reflect.DeepEqual(got.plans, want.plans) {
						t.Fatalf("%s procs=%d: off %d, %d point lines, %d plans; want off %d, %d point lines, %d plans (or the indexes differ)",
							name, procs, got.off, got.lines, len(got.plans), want.off, want.lines, len(want.plans))
					}
					if (err != nil) != (wantErr != nil) || (err != nil && !strings.Contains(err.Error(), fmt.Sprintf("%s at offset %d: %v", path, want.off, wantErr))) {
						t.Fatalf("%s procs=%d: err = %v, want %v at offset %d", name, procs, err, wantErr, want.off)
					}
				}
			}
		}
	}
}
