package manifest

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/nocsim"
)

// journalResult is a Result whose line needs json.Marshal's escapes,
// HTML's included, and holds its optional parts.
func journalResult(t *testing.T, i int) nocsim.Result {
	r := nocsim.Result{Scenario: testBase(t)}
	r.Scenario.Pattern = "a\"b\\c\n<&> é"
	r.Scenario.FaultyLinks = []string{"1>2"}
	r.AvgDelayNs = 100 + float64(i)
	r.P99DelayNs = 5e-324
	r.Trace = []nocsim.TraceSample{{TimeNs: 1e4, FreqHz: 1e9, Volts: 1, DelayNs: 80}}
	r.Meta = nocsim.RunMeta{Seed: -3, Workers: 2, WallTime: time.Millisecond, PointIndex: i}
	return r
}

// TestJournalLineBytes: each journal line is json.Marshal's encoding of
// the Record and a newline, byte for byte, and a result json cannot
// encode writes nothing.
func TestJournalLineBytes(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Journal("x")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := range 3 {
		r := journalResult(t, i)
		if err := j.Append(i, r); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(Record{Index: i, Result: r})
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
		if i == 1 {
			bad := journalResult(t, 9)
			bad.AvgDelayNs = math.NaN()
			if err := j.Append(9, bad); err == nil {
				t.Fatal("appended a NaN delay")
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(st.PointsPath("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal:\n%s\nwant json.Marshal's lines:\n%s", got, want)
	}
}

// underRace is set when the race detector is on (race_test.go).
var underRace bool

// TestJournalAppendAllocs: an append encodes straight into the journal's
// writer and allocates nothing (json.Marshal and boxing the Record took
// 2 allocations). The bound is the count measured then.
func TestJournalAppendAllocs(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Journal("x")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	r := journalResult(t, 1)
	i := 0
	if underRace {
		t.Skip("sync.Pool drops what is put back under the race detector")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := j.Append(i, r); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("one Journal.Append: %.1f allocations", allocs)
	if allocs > 0 {
		t.Errorf("one Journal.Append: %.1f allocations, want 0", allocs)
	}
	if lines := strings.Count(readFile(t, st.PointsPath("x")), "\n"); lines != 21 {
		t.Errorf("%d journal lines, want 21", lines)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
