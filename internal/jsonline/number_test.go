package jsonline

import (
	"encoding/json"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
)

// jsonNumber and jsonInteger are the grammar of a JSON number, and of one
// with neither fraction nor exponent, written out independently of the
// scanner.
var (
	jsonNumber  = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	jsonInteger = regexp.MustCompile(`^-?(0|[1-9][0-9]*)$`)
)

// checkNumber holds Float and Int64 on s to strconv: each accepts s if and
// only if s is a JSON number (an integer, for Int64) that strconv converts
// without error, and then returns strconv's value, float bits included.
func checkNumber(t *testing.T, s string) {
	t.Helper()
	d := New([]byte(s))
	f := d.Float()
	want, err := strconv.ParseFloat(s, 64)
	wantOK := jsonNumber.MatchString(s) && err == nil
	if d.Done() != wantOK || (wantOK && math.Float64bits(f) != math.Float64bits(want)) {
		t.Fatalf("Float(%q) = %v (%#x), accepted %v; strconv: %v (%#x), error %v",
			s, f, math.Float64bits(f), d.Done(), want, math.Float64bits(want), err)
	}
	d = New([]byte(s))
	n := d.Int64()
	wantN, err := strconv.ParseInt(s, 10, 64)
	wantOK = jsonInteger.MatchString(s) && err == nil
	if d.Done() != wantOK || (wantOK && n != wantN) {
		t.Fatalf("Int64(%q) = %d, accepted %v; strconv: %d, error %v", s, n, d.Done(), wantN, err)
	}
}

// numberSeeds are the forms json.Marshal writes and the edges where a
// conversion method hands over to the next: exact float64 arithmetic to
// Eisel–Lemire at 2^53 and 10^22, Eisel–Lemire to strconv at 19 digits,
// at the largest and the subnormal float64s, and at exponents no float64
// reaches.
var numberSeeds = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0e-5", "1", "-1", "0.1", "0.2", "0.30000000000000004",
	"9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993",
	"4503599627370495", "4503599627370496", "4503599627370497",
	"1e22", "1e23", "9999999999999999e22", "123456789e-22", "123456789e-23", "1e15", "1e37", "1e38",
	"1.7976931348623157e308", "1.7976931348623159e308", "-1.7976931348623157e+308", "1.8e308",
	"4.9e-324", "5e-324", "2.4e-324", "2.5e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
	"1234567890123456789", "12345678901234567890", "9223372036854775807", "9223372036854775808",
	"-9223372036854775808", "-9223372036854775809", "999999999999999999", "1000000000000000000",
	"1.234567890123456789", "1.2345678901234567890", "1.23456789012345678901e5", "0.000000000000000000001",
	"1e999999", "1e-999999", "-1e999999", "0e999999", "1.5e+999999", "123e-999999",
	"9007199254740993.0000000000000000001", "2.00000000000000011102230246251565404236316680908203125",
	"7.2057594037927933e16", "1e", "1e+", ".5", "5.", "01", "+1", "1_000", "0x10", "Inf", "NaN", "", "-", "1.0e", "--1",
}

// FuzzNumber holds the number kernel to strconv: on any text Float and
// Int64 accept what strconv.ParseFloat and strconv.ParseInt accept of the
// JSON grammar and return the same bits. Each input also runs as the
// forms json.Marshal and strconv write for a float64, and as a mantissa
// and exponent joined.
func FuzzNumber(f *testing.F) {
	for i, s := range numberSeeds {
		f.Add(s, float64(i)*0.1, uint64(i)*12345678901, int32(i-30))
	}
	f.Add("", 0.1, uint64(9007199254740993), int32(0))
	f.Add("", 1e300, uint64(17976931348623157), int32(292))
	f.Add("", 5e-324, uint64(49), int32(-325))
	f.Add("", -2.2250738585072011e-308, uint64(22250738585072011), int32(-324))
	f.Add("", 123.456, uint64(1<<63), int32(-999999))
	f.Fuzz(func(t *testing.T, s string, x float64, man uint64, exp int32) {
		checkNumber(t, s)
		if b, err := json.Marshal(x); err == nil {
			checkNumber(t, string(b))
		}
		for _, fmt := range []byte{'e', 'g'} {
			checkNumber(t, strconv.FormatFloat(x, fmt, -1, 64))
			checkNumber(t, strconv.FormatFloat(x, fmt, 17, 64))
		}
		m := strconv.FormatUint(man, 10)
		checkNumber(t, m)
		checkNumber(t, "-"+m)
		checkNumber(t, m+"e"+strconv.Itoa(int(exp)))
		if len(m) > 1 {
			checkNumber(t, m[:1]+"."+m[1:]+"e"+strconv.Itoa(int(exp)))
		}
	})
}

// TestNumberMatchesStrconv runs the kernel over generated numbers of every
// length and exponent, and every float64 form json.Marshal writes for
// random bit patterns: each must match strconv bit for bit.
func TestNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range numberSeeds {
		checkNumber(t, s)
	}
	for range 20000 {
		x := math.Float64frombits(rng.Uint64())
		if b, err := json.Marshal(x); err == nil {
			checkNumber(t, string(b))
		}
		m := strconv.FormatUint(rng.Uint64()>>rng.Intn(64), 10)
		if rng.Intn(2) == 0 {
			m = "-" + m
		}
		checkNumber(t, m)
		checkNumber(t, m+"e"+strconv.Itoa(rng.Intn(700)-350))
		checkNumber(t, "0."+m+"e"+strconv.Itoa(rng.Intn(40)-20))
		// Up to 40 digits with the point anywhere: every count of
		// digits before it meets every run after it.
		ds := strconv.FormatUint(rng.Uint64()|1, 10) + strconv.FormatUint(rng.Uint64(), 10)
		ds = ds[:1+rng.Intn(len(ds))]
		if p := 1 + rng.Intn(len(ds)); p < len(ds) {
			ds = ds[:p] + "." + ds[p:]
		}
		checkNumber(t, ds)
		checkNumber(t, ds+"e-"+strconv.Itoa(rng.Intn(330)))
	}
}

// BenchmarkNumber reports ns per number for the kernel and for strconv on
// the same text: the float64s json.Marshal writes for the metrics of a
// store line, and the integers beside them.
func BenchmarkNumber(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var floats, ints [][]byte
	for range 1024 {
		x, _ := json.Marshal(rng.Float64() * math.Pow(10, float64(rng.Intn(12)-2)))
		floats = append(floats, x)
		ints = append(ints, strconv.AppendInt(nil, rng.Int63n(1e9), 10))
	}
	run := func(name string, nums [][]byte, f func([]byte) bool) {
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				for _, n := range nums {
					if !f(n) {
						b.Fatalf("%s declined", n)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(nums)), "ns/number")
		})
	}
	run("float/kernel", floats, func(n []byte) bool { d := New(n); d.Float(); return d.Done() })
	run("float/strconv", floats, func(n []byte) bool { _, err := strconv.ParseFloat(string(n), 64); return err == nil })
	run("int/kernel", ints, func(n []byte) bool { d := New(n); d.Int64(); return d.Done() })
	run("int/strconv", ints, func(n []byte) bool { _, err := strconv.ParseInt(string(n), 10, 64); return err == nil })
}
