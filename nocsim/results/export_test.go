package results

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/nocsim/manifest"
)

// TestExportEveryLineKind holds ExportJournal to the journal, byte for
// byte, for every way a point line reaches the index: decoded on the fast
// path (the Record sliced at the offset the decode found), declined by it
// (found by recordIn, or encoded again when the envelope is not the one
// json.Marshal writes), and appended in this process (sliced at the
// offset its encoding fixed). A reopened store exports the same bytes.
func TestExportEveryLineKind(t *testing.T) {
	m := testManifest(t, "fig7", 0.1, 0.2)
	sum, err := manifest.Sum(m)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]manifest.Record, m.NumPoints())
	jsonl := make([]string, len(recs)) // each point's journal line
	for i := range recs {
		recs[i] = manifest.Record{Index: i, Result: fakeResult(t, m, i)}
		line, err := json.Marshal(recs[i])
		if err != nil {
			t.Fatal(err)
		}
		jsonl[i] = string(line)
	}
	envelope := `{"kind":"point","sum":"` + sum + `","point":`
	// A Record with a key this program does not write: the fast path
	// declines the line, and recordIn copies the Record as it stands.
	foreign := strings.Replace(jsonl[3], `"result":{`, `"result":{"host":"n1",`, 1)
	kinds := []struct {
		name   string
		line   string // "" appends the point through AddPoint
		sliced bool   // the index holds the Record's offset
		export string // the journal line the point exports as
	}{
		{"fast path", envelope + jsonl[0] + "}", true, jsonl[0]},
		{"keys in another order", `{"sum":"` + sum + `","kind":"point","point":` + jsonl[1] + "}", false, jsonl[1]},
		{"space after the point", envelope + jsonl[2] + " }", false, jsonl[2]},
		{"unknown key in the Record", envelope + foreign + "}", false, foreign},
		{"appended in this process", "", true, jsonl[4]},
		{"appended in this process too", "", true, jsonl[5]},
	}
	if len(kinds) != m.NumPoints() {
		t.Fatalf("%d line kinds for %d points", len(kinds), m.NumPoints())
	}
	var journal []byte
	for _, k := range kinds {
		journal = append(append(journal, k.export...), '\n')
	}
	file := recordLine(t, &record{Kind: kindManifest, Sum: sum, Manifest: m})
	for _, k := range kinds {
		if k.line != "" {
			file = append(append(file, k.line...), '\n')
		}
	}
	path := filepath.Join(t.TempDir(), "results.jsonl")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, path)
	defer s.Close()
	for i, k := range kinds {
		if k.line == "" {
			if err := s.AddPoint(sum, i, recs[i].Result); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(s *Store, when string) {
		t.Helper()
		p := s.plans[sum]
		for i, k := range kinds {
			if at := p.points[i].at; (at > 0) != k.sliced {
				t.Errorf("%s: %s: Record offset %d, want one: %v", when, k.name, at, k.sliced)
			}
		}
		var out bytes.Buffer
		if err := s.ExportJournal(&out, sum); err != nil {
			t.Fatal(err)
		}
		if got := out.Bytes(); !bytes.Equal(got, journal) {
			t.Errorf("%s: export is not the journal:\n--- journal ---\n%s--- export ---\n%s", when, journal, got)
		}
	}
	check(s, "after the appends")

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	check(r, "reopened")
}
