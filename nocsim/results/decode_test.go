package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/jsonline"
	"repro/nocsim"
	"repro/nocsim/manifest"
)

// floatBits appends the bits of every float64 v holds, in field order.
// reflect.DeepEqual compares floats with ==, which takes -0 for 0.
func floatBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Pointer:
		if !v.IsNil() {
			out = floatBits(v.Elem(), out)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			out = floatBits(v.Field(i), out)
		}
	case reflect.Slice:
		for i := range v.Len() {
			out = floatBits(v.Index(i), out)
		}
	}
	return out
}

// same reports whether two decoded values are equal, float bits included.
func same(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return reflect.DeepEqual(a, b) && slices.Equal(floatBits(va, nil), floatBits(vb, nil))
}

// decodeJournalLine runs the journal line's fast path alone.
func decodeJournalLine(line []byte) (manifest.Record, bool) {
	var rec manifest.Record
	d := jsonline.New(line)
	d.Record(&rec.Index, &rec.Result)
	return rec, d.Done()
}

// decodeStoreLine runs the store line's fast path alone.
func decodeStoreLine(line []byte) (record, bool) {
	var s scanned
	ok := s.DecodeLine(line)
	return s.record, ok
}

// everyFieldResult is a Result with every field the JSON form carries
// set, and its strings holding every escape json.Marshal writes.
func everyFieldResult() nocsim.Result {
	return nocsim.Result{
		Scenario: nocsim.Scenario{
			Mesh: nocsim.Mesh{Width: 6, Height: 4, VCs: 3, BufDepth: 5, PacketSize: 7, Routing: nocsim.RoutingO1Turn},
			// " \ and the named control escapes, a control character
			// with no name, HTML's three, the two line separators
			// JavaScript reads as newlines, and non-ASCII text.
			Pattern:       "a\"b\\c\nd\re\tf\bg\fh\x01i",
			App:           "<h264> & vce",
			PeakRate:      0.41,
			TraceRef:      "traces/run\u2028one\u2029.json",
			Source:        &nocsim.SourceSpec{Kind: "pareto", BurstRatio: 3.5, BurstLen: 80, ParetoAlpha: 1.25},
			FaultyLinks:   []string{"6>7", "7>6", "smörgåsbord", "bad\xffutf8"},
			Islands:       []nocsim.Island{{X0: 1, Y0: 2, X1: 3, Y1: 3, Speed: 0.5}, {X0: 4, Y0: 1, X1: 5, Y1: 2, Speed: 0.25}},
			Load:          -0.0625,
			Policy:        nocsim.DMSD,
			Calibration:   &nocsim.Calibration{SaturationRate: 0.42, LambdaMax: 0.378, TargetDelayNs: 1.5e-7},
			FNodeHz:       1e9,
			FMinHz:        3.33e8,
			FMaxHz:        1.000000000000001e9,
			ControlPeriod: 12345,
			KI:            0.001,
			KP:            1e-21,
			FreqLevels:    8,
			Transient:     true,
			Seed:          -9223372036854775808,
			Quick:         true,
			Workers:       3,
		},
		Metrics: nocsim.Metrics{
			AvgLatencyCycles: 33.3, AvgDelayNs: 101.25, P99DelayNs: 5e300, Packets: 9223372036854775807,
			OfferedRate: 0.2, Throughput: 0.19999999999999998, AvgFreqHz: 6.66e8, AvgVolts: 0.8125,
			AvgPowerMW: 42, SwitchingMW: 21.5, ClockMW: 12.5, LeakageMW: 8, Saturated: true,
			ElapsedNs: 6e4, NetCycles: 123456789,
		},
		Trace: []nocsim.TraceSample{{TimeNs: 1e4, FreqHz: 1e9, Volts: 1, DelayNs: 80}, {TimeNs: 2e4, FreqHz: 5e8, Volts: 0.7, DelayNs: 4.9e-324}},
		Meta:  nocsim.RunMeta{Seed: 7, Workers: 2, WallTime: 3 * time.Millisecond, PointIndex: 41},
	}
}

// unsetFields lists the fields of v, by path, that hold a zero value,
// looking into structs, pointers and every slice element, and skipping
// fields the JSON form does not carry.
func unsetFields(v reflect.Value, path string) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return []string{path}
		}
		return unsetFields(v.Elem(), path)
	case reflect.Slice:
		if v.Len() == 0 {
			return []string{path}
		}
		var out []string
		for i := range v.Len() {
			out = append(out, unsetFields(v.Index(i), path+"[]")...)
		}
		return out
	case reflect.Struct:
		var out []string
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				continue
			}
			out = append(out, unsetFields(v.Field(i), path+"."+f.Name)...)
		}
		return out
	}
	if v.IsZero() {
		return []string{path}
	}
	return nil
}

// TestEveryResultFieldTakesTheFastPath is the decoder's coverage guard: a
// Result with every JSON field set decodes on the fast path, in both line
// forms, to what json.Unmarshal returns. A field added to Scenario,
// Metrics, RunMeta or any type under them fails here — first for being
// unset below, then for sending every line to the slow path — until the
// decoder reads it.
func TestEveryResultFieldTakesTheFastPath(t *testing.T) {
	r := everyFieldResult()
	if unset := unsetFields(reflect.ValueOf(r), "Result"); len(unset) > 0 {
		t.Fatalf("set these fields in everyFieldResult, and decode them in internal/jsonline: %v", unset)
	}
	rec := manifest.Record{Index: 17, Result: r}
	journal, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, esc := range []string{`\"`, `\\`, `\n`, `\r`, `\t`, `\b`, `\f`, `\u0001`, `\u003c`, `\u003e`, `\u0026`, `\u2028`, `\u2029`, `\ufffd`, "ö"} {
		if !bytes.Contains(journal, []byte(esc)) {
			t.Errorf("the line holds no %s: give a string field one", esc)
		}
	}
	var want manifest.Record
	if err := json.Unmarshal(journal, &want); err != nil {
		t.Fatal(err)
	}
	if got, ok := decodeJournalLine(journal); !ok || !same(got, want) {
		t.Errorf("journal line: fast path accepted %v, decoded\n%+v\nwant\n%+v", ok, got, want)
	}

	store, err := json.Marshal(&record{Kind: kindPoint, Sum: "0123456789abcdef", Point: &rec})
	if err != nil {
		t.Fatal(err)
	}
	var wantRec record
	if err := json.Unmarshal(store, &wantRec); err != nil {
		t.Fatal(err)
	}
	if got, ok := decodeStoreLine(store); !ok || !same(got, wantRec) {
		t.Errorf("store line: fast path accepted %v, decoded\n%+v\nwant\n%+v", ok, got, wantRec)
	}
	if got := recordIn(append(store, '\n'), wantRec.Sum); !bytes.Equal(got, journal) {
		t.Errorf("the Record copied out of the store line is\n%s\nwant the journal line\n%s", got, journal)
	}
}

// TestFastPathDeclines: every departure from the form json.Marshal writes
// is left to json.Unmarshal, and so is a line only it can read right.
func TestFastPathDeclines(t *testing.T) {
	rec := manifest.Record{Index: 3, Result: everyFieldResult()}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeJournalLine(line); !ok {
		t.Fatal("the canonical line is declined")
	}
	edit := func(old, new string) []byte {
		if !bytes.Contains(line, []byte(old)) {
			t.Fatalf("the line holds no %s", old)
		}
		return bytes.Replace(line, []byte(old), []byte(new), 1)
	}
	for name, b := range map[string][]byte{
		"unknown key":          edit(`"index":3,`, `"index":3,"extra":1,`),
		"keys swapped":         edit(`"fnode_hz":1000000000,"fmin_hz":333000000`, `"fmin_hz":333000000,"fnode_hz":1000000000`),
		"duplicate key":        edit(`"load":-0.0625,`, `"load":1,"load":-0.0625,`),
		"key in other case":    edit(`"index"`, `"Index"`),
		"escaped key":          edit(`"index"`, `"\u0069ndex"`),
		"space after colon":    edit(`"index":3`, `"index": 3`),
		"newline inside":       edit(`,"result"`, "\n,\"result\""),
		"leading space":        append([]byte(" "), line...),
		"trailing newline":     append(bytes.Clone(line), '\n'),
		"trailing bytes":       append(bytes.Clone(line), '}'),
		"null pointer":         edit(`"calibration":{"saturation_rate":0.42,"lambda_max":0.378,"target_delay_ns":1.5e-7}`, `"calibration":null`),
		"null number":          edit(`"load":-0.0625`, `"load":null`),
		"empty array":          edit(`"islands":[{"x0":1,"y0":2,"x1":3,"y1":3,"speed":0.5},{"x0":4,"y0":1,"x1":5,"y1":2,"speed":0.25}]`, `"islands":[]`),
		"float into int":       edit(`"index":3`, `"index":3.0`),
		"exponent into int":    edit(`"index":3`, `"index":3e0`),
		"int overflow":         edit(`"index":3`, `"index":9223372036854775808`),
		"float overflow":       edit(`"p99_delay_ns":5e+300`, `"p99_delay_ns":5e+400`),
		"leading zero":         edit(`"index":3`, `"index":03`),
		"plus sign":            edit(`"index":3`, `"index":+3`),
		"bare fraction":        edit(`"load":-0.0625`, `"load":-.0625`),
		"string for number":    edit(`"index":3`, `"index":"3"`),
		"surrogate pair":       edit(`"policy":"dmsd"`, `"policy":"\ud83d\ude00"`),
		"invalid utf-8":        edit(`"policy":"dmsd"`, "\"policy\":\"dm\xffsd\""),
		"raw control byte":     edit(`"policy":"dmsd"`, "\"policy\":\"dm\x01sd\""),
		"unknown escape":       edit(`"policy":"dmsd"`, `"policy":"dm\qsd"`),
		"short unicode escape": edit(`"policy":"dmsd"`, `"policy":"dm\u12"`),
		"truncated":            line[:len(line)-1],
	} {
		got, ok := decodeJournalLine(b)
		var want manifest.Record
		err := json.Unmarshal(b, &want)
		if ok {
			t.Errorf("%s: fast path accepted %s (json.Unmarshal: %v, same value %v)", name, b, err, same(got, want))
		}
	}
}

// testdataLines returns journal and store lines for the scenarios in
// nocsim/testdata, each as the result of a transient run.
func testdataLines(t testing.TB) (journal, store [][]byte) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var sc nocsim.Scenario
		if json.Unmarshal(data, &sc) != nil || sc.Mesh.Width == 0 {
			continue // not a scenario
		}
		r := everyFieldResult()
		r.Scenario = sc
		rec := manifest.Record{Index: len(journal), Result: r}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(journal, line)
		line, err = json.Marshal(&record{Kind: kindPoint, Sum: "76f7e2c3e8f1a0b9", Point: &rec})
		if err != nil {
			t.Fatal(err)
		}
		store = append(store, line)
	}
	if len(journal) < 2 {
		t.Fatalf("found %d scenarios in nocsim/testdata, want the two goldens", len(journal))
	}
	return journal, store
}

// FuzzRecordDecode holds the fast path to its oracle: on any bytes it
// declines, or returns exactly what json.Unmarshal returns — the same
// value, the same float bits, and no error. The Record ExportJournal
// copies out of a store line decodes to the line's point. Besides the
// raw bytes, each input runs as the text of a string and of a number
// spliced into a canonical line, and as values json.Marshal encodes,
// which the fast path must accept.
func FuzzRecordDecode(f *testing.F) {
	journal, store := testdataLines(f)
	m := testManifest(f, "fig7", 0.1, 0.2)
	for i := 0; i < m.NumPoints(); i++ {
		rec := manifest.Record{Index: i, Result: fakeResult(f, m, i)}
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		journal = append(journal, line)
		store = append(store, bytes.TrimSuffix(recordLine(f, &record{Kind: kindPoint, Sum: "5eed", Point: &rec}), []byte("\n")))
	}
	seeds := slices.Concat(journal, store, [][]byte{
		bytes.TrimSuffix(recordLine(f, &record{Kind: kindManifest, Sum: "5eed", Manifest: m}), []byte("\n")),
		[]byte(`{"kind":"point","sum":"5eed","point":{"index":1,"result":{}},"point":{"index":2,"result":{}}}`),
	})
	texts := []string{"uniform", "6\\u003e7", `a\"b\\c\u00e9\ud83d\ude00`, "0.1", "-1.5e-7", "1E+400"}
	for i, b := range seeds {
		f.Add(b, texts[i%len(texts)], 0.1*float64(i), int64(i))
	}

	base := journal[0]
	const strSlot, numSlot = `"policy":"nodvfs"`, `"load":0.2,`
	if !bytes.Contains(base, []byte(strSlot)) || !bytes.Contains(base, []byte(numSlot)) {
		f.Fatalf("the base line holds no %s or no %s: %s", strSlot, numSlot, base)
	}
	// check runs both fast paths over one journal line: in it, and in a
	// store line around it.
	check := func(t *testing.T, b []byte) {
		t.Helper()
		if got, ok := decodeJournalLine(b); ok {
			var want manifest.Record
			if err := json.Unmarshal(b, &want); err != nil || !same(got, want) {
				t.Fatalf("journal fast path accepted %q: json.Unmarshal error %v, same value %v\nfast %+v\nwant %+v", b, err, same(got, want), got, want)
			}
		}
		checkStore(t, slices.Concat([]byte(`{"kind":"point","sum":"5eed","point":`), b, []byte("}")))
	}
	f.Fuzz(func(t *testing.T, b []byte, text string, x float64, n int64) {
		check(t, b)
		checkStore(t, b)
		check(t, bytes.Replace(base, []byte(strSlot), []byte(`"policy":"`+text+`"`), 1))
		check(t, bytes.Replace(base, []byte(numSlot), []byte(`"load":`+text+`,`), 1))

		r := everyFieldResult()
		r.Scenario.Pattern, r.Scenario.FaultyLinks[0], r.Scenario.Load, r.AvgDelayNs, r.Packets, r.Meta.WallTime = text, text, x, -x, n, time.Duration(n)
		line, err := json.Marshal(manifest.Record{Index: int(int32(n)), Result: r})
		if err != nil {
			return // NaN or ±Inf: no line
		}
		if _, ok := decodeJournalLine(line); !ok {
			t.Fatalf("fast path declined a line json.Marshal wrote: %s", line)
		}
		check(t, line)
	})
}

// checkStore runs the store line's fast path over b, and recordIn when
// json.Unmarshal reads b as a point record. Where the fast path accepts,
// the Record it located is the line's point.
func checkStore(t *testing.T, b []byte) {
	t.Helper()
	var want record
	err := json.Unmarshal(b, &want)
	var got scanned
	if got.DecodeLine(b) {
		if err != nil || !same(got.record, want) {
			t.Fatalf("store fast path accepted %q: json.Unmarshal error %v, same value %v\nfast %+v\nwant %+v", b, err, same(got.record, want), got.record, want)
		}
		var back manifest.Record
		if err := json.Unmarshal(b[got.at:len(b)-1], &back); err != nil || !same(back, *want.Point) {
			t.Fatalf("ExportJournal would slice %q out of %q at %d: error %v, or not the line's point", b[got.at:len(b)-1], b, got.at, err)
		}
	}
	if err != nil || want.Point == nil || bytes.IndexByte(b, '\n') >= 0 {
		return
	}
	if rec := recordIn(append(bytes.Clone(b), '\n'), want.Sum); rec != nil {
		var back manifest.Record
		if err := json.Unmarshal(rec, &back); err != nil || !same(back, *want.Point) {
			t.Fatalf("ExportJournal would copy %q out of %q: error %v, or not the line's point", rec, b, err)
		}
	}
}

// BenchmarkDecodeLine decodes one store point line, shaped like the
// store_replay workload's, on the fast path and with json.Unmarshal.
func BenchmarkDecodeLine(b *testing.B) {
	m := testManifest(b, "fig7", 0.1)
	r := fakeResult(b, m, 2)
	r.Metrics = nocsim.Metrics{
		AvgLatencyCycles: 57.31234567890123, AvgDelayNs: 96.0512345678901, P99DelayNs: 288.1537037036703,
		Packets: 31472, OfferedRate: 0.1, Throughput: 0.09912345678901234, AvgFreqHz: 5.967890123456789e8,
		AvgVolts: 0.7812345678901234, AvgPowerMW: 61.23456789012345, SwitchingMW: 30.617283945061725,
		ClockMW: 18.370370367037035, LeakageMW: 12.24691357802469, ElapsedNs: 6e4, NetCycles: 61234,
	}
	r.Meta.WallTime = 12345678 * time.Nanosecond
	line := bytes.TrimSuffix(recordLine(b, &record{Kind: kindPoint, Sum: "76f7e2c3e8f1a0b9", Point: &manifest.Record{Index: 2, Result: r}}), []byte("\n"))
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for b.Loop() {
			var rec scanned
			if !rec.DecodeLine(line) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for b.Loop() {
			var rec record
			if err := json.Unmarshal(line, &rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDeclinedLinesFailAsRecords: a line the fast path declines is read
// into the scan's wrapper exactly as json.Unmarshal reads it into a
// record — the same value, or the same error text.
func TestDeclinedLinesFailAsRecords(t *testing.T) {
	_, store := testdataLines(t)
	for _, b := range [][]byte{
		store[0],
		[]byte(`{"kind":"point","sum":5}`),
		[]byte(`{"kind":"point","point":{"index":"3"}}`),
		[]byte(`{"kind":"manifest","sum":"x","manifest":[1]}`),
		[]byte(`[{"kind":"point"}]`),
		[]byte(`{"kind":"point","sum":"x","point":{"index":1,"result":{"avg_delay_ns":1e999}}}`),
		[]byte(`{"kind":"point","sum":`),
		[]byte(`null`),
	} {
		var want record
		wantErr := json.Unmarshal(b, &want)
		var got scanned
		err := json.Unmarshal(b, &got)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !same(got.record, want)) {
			t.Errorf("%s: error %v, want %v (or the values differ)", b, err, wantErr)
		}
	}
}
