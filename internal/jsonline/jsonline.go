// Package jsonline decodes, without reflection, the JSON lines the
// program writes itself: a points journal's record and the nocsim.Result
// inside it, laid out exactly as encoding/json's Marshal lays them out.
//
// A Decoder expects every key in struct order, skips an absent omitempty
// key, and handles the string escapes Marshal emits. Anything else — an
// unknown key, another order, whitespace, null, an empty array, a number
// out of range, trailing bytes — makes it decline: Done reports false and
// the caller decodes the line with json.Unmarshal, which stays the
// reference for what a line means. What the Decoder accepts it decodes to
// exactly the value json.Unmarshal would, float bits included: the tests
// and FuzzRecordDecode that hold it to that live in nocsim/results, which
// writes both line forms.
//
// A number is converted in the scan that checks its grammar: the scan
// builds its decimal mantissa and power of ten, and Float converts those
// the way strconv.ParseFloat does first — exact float64 arithmetic, then
// the Eisel–Lemire algorithm (eisel_lemire.go, strconv's own). A number
// neither method converts exactly, and an integer of more than 18
// digits, goes to strconv itself, which is also the oracle FuzzNumber
// holds the conversion to, bit for bit.
package jsonline

import (
	"encoding/binary"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"repro/nocsim"
)

// A Decoder reads one JSON value from a byte slice. Its failure is
// sticky: after the first byte out of the expected form every method
// returns a zero value, and Done reports false.
type Decoder struct {
	b     []byte
	i     int
	first bool // the innermost open object has no key read yet
	bad   bool
}

// New returns a Decoder over b, which must hold the whole value and
// nothing after it.
func New(b []byte) Decoder { return Decoder{b: b} }

// Done reports whether everything read so far was in the expected form
// and the input is used up.
func (d *Decoder) Done() bool { return !d.bad && d.i == len(d.b) }

// Offset returns how many bytes of the input have been read: where the
// next value starts.
func (d *Decoder) Offset() int { return d.i }

func (d *Decoder) fail() { d.bad = true }

// lit consumes c, or fails.
func (d *Decoder) lit(c byte) {
	if d.bad || d.i >= len(d.b) || d.b[d.i] != c {
		d.fail()
		return
	}
	d.i++
}

// Open consumes the '{' that starts an object.
func (d *Decoder) Open() {
	d.lit('{')
	d.first = true
}

// Close consumes the '}' that ends an object.
func (d *Decoder) Close() {
	d.lit('}')
	d.first = false
}

// Key consumes the object key k and its colon, preceded by a comma
// unless k is the object's first key, and reports whether it was there.
// An absent key is not a failure: that is how an omitempty field reads.
func (d *Decoder) Key(k string) bool {
	if d.bad {
		return false
	}
	b := d.b[d.i:]
	n := 0
	if !d.first {
		if len(b) == 0 || b[0] != ',' {
			return false
		}
		n = 1
	}
	end := n + len(k) + 3
	if len(b) < end || b[n] != '"' || string(b[n+1:end-2]) != k || b[end-2] != '"' || b[end-1] != ':' {
		return false
	}
	d.i += end
	d.first = false
	return true
}

// Need consumes the key k like Key, and fails when it is absent.
func (d *Decoder) Need(k string) {
	if !d.Key(k) {
		d.fail()
	}
}

// Elems consumes the '[' that starts an array and reports whether to
// read its first element. An empty array fails there: Marshal omits the
// empty slices of this program's types, and json.Unmarshal would decode
// one to an empty, non-nil slice.
func (d *Decoder) Elems() bool {
	d.lit('[')
	return !d.bad
}

// Next consumes the ',' between two array elements and reports true, or
// the ']' after the last one and reports false.
func (d *Decoder) Next() bool {
	if d.bad || d.i >= len(d.b) {
		d.fail()
		return false
	}
	switch d.b[d.i] {
	case ',':
		d.i++
		return true
	case ']':
		d.i++
		return false
	}
	d.fail()
	return false
}

// decimal is a JSON number as number reads it: ±man × 10^exp10, where man
// holds the first 19 significant digits. It is the number exactly unless
// trunc: a nonzero digit came after those 19.
type decimal struct {
	man     uint64
	exp10   int
	nd      int  // significant digits, leading zeros not counted
	neg     bool // a minus sign
	trunc   bool
	integer bool // neither a fraction nor an exponent
}

// maxMantDigits is how many decimal digits a uint64 always holds.
const maxMantDigits = 19

// number consumes a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns the decimal it spells, built in the same pass and by the
// same rules as strconv's readFloat: the digits fill the mantissa, the
// point and the exponent move the power of ten, and an exponent past 10000
// stops growing (no float64 lies near it either way).
func (d *Decoder) number() (n decimal) {
	if d.bad {
		return n
	}
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	var man uint64
	nd := 0 // significant digits so far
	trunc := false
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, man, nd, trunc = digits(b, i, man, nd, trunc)
	default:
		d.fail()
		return n
	}
	dp := nd // digits before the point
	n.integer = true
	if i < len(b) && b[i] == '.' {
		n.integer = false
		if i++; i >= len(b) || !isDigit(b[i]) {
			d.fail()
			return n
		}
		if nd == 0 {
			for ; i < len(b) && b[i] == '0'; i++ {
				dp-- // a zero before the first significant digit
			}
		}
		i, man, nd, trunc = digits(b, i, man, nd, trunc)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		n.integer = false
		esign := 1
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			d.fail()
			return n
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		dp += e * esign
	}
	n.man, n.nd, n.trunc = man, nd, trunc
	if man != 0 {
		n.exp10 = dp - min(nd, maxMantDigits)
	}
	d.i = i
	return n
}

// digits reads the run of digits at b[i:] into a mantissa that holds nd
// significant digits so far: the first maxMantDigits of them go into man,
// and a nonzero one after those sets trunc. It returns where the run ends
// and the new mantissa.
func digits(b []byte, i int, man uint64, nd int, trunc bool) (int, uint64, int, bool) {
	for nd+8 <= maxMantDigits && i+8 <= len(b) {
		v, ok := eightDigits(binary.LittleEndian.Uint64(b[i:]))
		if !ok {
			break
		}
		man = man*1e8 + v
		nd += 8
		i += 8
	}
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		if nd < maxMantDigits {
			man = man*10 + uint64(c)
		} else if c != 0 {
			trunc = true
		}
		nd++
	}
	return i, man, nd, trunc
}

// eightDigits reads eight bytes, first byte lowest, as decimal digits in
// one go (Lemire's SWAR method): it reports whether all eight are digits
// and, if so, the number they spell.
func eightDigits(v uint64) (uint64, bool) {
	if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
		return 0, false
	}
	v -= 0x3030303030303030
	v = v*10 + v>>8 // each 16-bit lane: its two digits as one number
	v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return v, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exact64 is strconv's atof64exact: when man and the power of ten are
// both exact float64s, one IEEE multiplication or division rounds their
// product or quotient correctly. It reports false otherwise.
func exact64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man>>52 != 0 {
		return 0, false
	}
	f = float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp10 == 0:
		return f, true
	case exp10 > 0 && exp10 <= 15+22: // an integer times 10^k
		// A long exponent on few digits moves zeros into the integer.
		if exp10 > 22 {
			f *= float64pow10[exp10-22]
			exp10 = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false // the exponent was too long after all
		}
		return f * float64pow10[exp10], true
	case exp10 < 0 && exp10 >= -22: // an integer over 10^k
		return f / float64pow10[-exp10], true
	}
	return 0, false
}

// Float consumes a number as json.Unmarshal reads one into a float64:
// the value strconv.ParseFloat gives its text, and a failure when that is
// out of range. The decimal number built is converted by strconv's own
// two fast methods in strconv's order — exact float64 arithmetic, then
// Eisel–Lemire — and a number either declines (more than 19 significant
// digits, a subnormal or infinite result, a halfway case) goes to
// strconv.ParseFloat itself. Either way the bits are strconv's.
func (d *Decoder) Float() float64 {
	start := d.i
	n := d.number()
	if d.bad {
		return 0
	}
	if !n.trunc {
		if f, ok := exact64(n.man, n.exp10, n.neg); ok {
			return f
		}
		if f, ok := eiselLemire64(n.man, n.exp10, n.neg); ok {
			return f
		}
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		d.fail()
		return 0
	}
	return f
}

// Int64 consumes an integer as json.Unmarshal reads one into an int64.
// A fraction, an exponent or a value out of range fails. Up to 18 digits
// always fit, and are the mantissa number built; a longer integer goes to
// strconv.ParseInt.
func (d *Decoder) Int64() int64 {
	start := d.i
	n := d.number()
	if d.bad || !n.integer {
		d.fail()
		return 0
	}
	if n.nd <= 18 {
		if n.neg {
			return -int64(n.man)
		}
		return int64(n.man)
	}
	v, err := strconv.ParseInt(string(d.b[start:d.i]), 10, 64)
	if err != nil {
		d.fail()
		return 0
	}
	return v
}

// Int consumes an integer that must fit an int.
func (d *Decoder) Int() int {
	n := d.Int64()
	if int64(int(n)) != n {
		d.fail()
		return 0
	}
	return int(n)
}

// Bool consumes true or false.
func (d *Decoder) Bool() bool {
	if d.bad {
		return false
	}
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false
	}
	d.fail()
	return false
}

// Str consumes a string. Raw bytes must be valid UTF-8 and no control
// characters; the escapes are JSON's, except that a \u escape of a UTF-16
// surrogate fails rather than be paired (Marshal writes none).
func (d *Decoder) Str() string {
	d.lit('"')
	if d.bad {
		return ""
	}
	start, ascii := d.i, true
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			raw := d.b[start:j]
			if !ascii && !utf8.Valid(raw) {
				d.fail()
				return ""
			}
			d.i = j + 1
			return intern(raw)
		case c == '\\':
			return d.escaped(start)
		case c < 0x20:
			d.fail()
			return ""
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.fail()
	return ""
}

// escaped finishes Str for a string starting at start that holds an
// escape.
func (d *Decoder) escaped(start int) string {
	var buf [64]byte
	out := buf[:0]
	b := d.b
	for j := start; j < len(b); {
		c := b[j]
		switch {
		case c == '"':
			if !utf8.Valid(out) {
				d.fail()
				return ""
			}
			d.i = j + 1
			return string(out)
		case c < 0x20:
			d.fail()
			return ""
		case c != '\\':
			out = append(out, c)
			j++
			continue
		}
		if j+1 >= len(b) {
			break
		}
		switch e := b[j+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, ok := hex4(b[j+2:])
			if !ok || utf16.IsSurrogate(r) {
				d.fail()
				return ""
			}
			out = utf8.AppendRune(out, r)
			j += 4
		default:
			d.fail()
			return ""
		}
		j += 2
	}
	d.fail()
	return ""
}

// hex4 decodes the four hex digits a \u escape starts with.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// intern returns the string raw spells, without allocating for the names
// that fill most lines: routings, policies, patterns, apps, source and
// record kinds.
func intern(raw []byte) string {
	switch string(raw) {
	case "":
		return ""
	case "xy":
		return "xy"
	case "yx":
		return "yx"
	case "o1turn":
		return "o1turn"
	case "nodvfs":
		return "nodvfs"
	case "rmsd":
		return "rmsd"
	case "dmsd":
		return "dmsd"
	case "uniform":
		return "uniform"
	case "tornado":
		return "tornado"
	case "bitcomp":
		return "bitcomp"
	case "transpose":
		return "transpose"
	case "neighbor":
		return "neighbor"
	case "bitrev":
		return "bitrev"
	case "shuffle":
		return "shuffle"
	case "h264":
		return "h264"
	case "vce":
		return "vce"
	case "mmpp":
		return "mmpp"
	case "pareto":
		return "pareto"
	case "point":
		return "point"
	case "manifest":
		return "manifest"
	}
	return string(raw)
}

// Record decodes a points journal's line, {"index":…,"result":…}, into
// its two fields.
func (d *Decoder) Record(index *int, r *nocsim.Result) {
	d.Open()
	d.Need("index")
	*index = d.Int()
	d.Need("result")
	d.Result(r)
	d.Close()
}

// Result decodes a nocsim.Result.
func (d *Decoder) Result(r *nocsim.Result) {
	d.Open()
	d.Need("scenario")
	d.scenario(&r.Scenario)
	m := &r.Metrics
	d.Need("avg_latency_cycles")
	m.AvgLatencyCycles = d.Float()
	d.Need("avg_delay_ns")
	m.AvgDelayNs = d.Float()
	d.Need("p99_delay_ns")
	m.P99DelayNs = d.Float()
	d.Need("packets")
	m.Packets = d.Int64()
	d.Need("offered_rate")
	m.OfferedRate = d.Float()
	d.Need("throughput")
	m.Throughput = d.Float()
	d.Need("avg_freq_hz")
	m.AvgFreqHz = d.Float()
	d.Need("avg_volts")
	m.AvgVolts = d.Float()
	d.Need("avg_power_mw")
	m.AvgPowerMW = d.Float()
	d.Need("switching_mw")
	m.SwitchingMW = d.Float()
	d.Need("clock_mw")
	m.ClockMW = d.Float()
	d.Need("leakage_mw")
	m.LeakageMW = d.Float()
	d.Need("saturated")
	m.Saturated = d.Bool()
	d.Need("elapsed_ns")
	m.ElapsedNs = d.Float()
	d.Need("net_cycles")
	m.NetCycles = d.Int64()
	if d.Key("trace") {
		for ok := d.Elems(); ok; ok = d.Next() {
			var t nocsim.TraceSample
			d.Open()
			d.Need("time_ns")
			t.TimeNs = d.Float()
			d.Need("freq_hz")
			t.FreqHz = d.Float()
			d.Need("volts")
			t.Volts = d.Float()
			d.Need("delay_ns")
			t.DelayNs = d.Float()
			d.Close()
			r.Trace = append(r.Trace, t)
		}
	}
	d.Need("meta")
	d.Open()
	d.Need("seed")
	r.Meta.Seed = d.Int64()
	d.Need("workers")
	r.Meta.Workers = d.Int()
	d.Need("wall_time_ns")
	r.Meta.WallTime = time.Duration(d.Int64())
	d.Need("point_index")
	r.Meta.PointIndex = d.Int()
	d.Close()
	d.Close()
}

func (d *Decoder) scenario(s *nocsim.Scenario) {
	d.Open()
	d.Need("mesh")
	d.Open()
	d.Need("width")
	s.Mesh.Width = d.Int()
	d.Need("height")
	s.Mesh.Height = d.Int()
	d.Need("vcs")
	s.Mesh.VCs = d.Int()
	d.Need("buf_depth")
	s.Mesh.BufDepth = d.Int()
	d.Need("packet_size")
	s.Mesh.PacketSize = d.Int()
	d.Need("routing")
	s.Mesh.Routing = nocsim.Routing(d.Str())
	d.Close()
	if d.Key("pattern") {
		s.Pattern = d.Str()
	}
	if d.Key("app") {
		s.App = d.Str()
	}
	if d.Key("peak_rate") {
		s.PeakRate = d.Float()
	}
	if d.Key("trace") {
		s.TraceRef = d.Str()
	}
	if d.Key("source") {
		sp := new(nocsim.SourceSpec)
		d.Open()
		d.Need("kind")
		sp.Kind = d.Str()
		if d.Key("burst_ratio") {
			sp.BurstRatio = d.Float()
		}
		if d.Key("burst_len") {
			sp.BurstLen = d.Float()
		}
		if d.Key("pareto_alpha") {
			sp.ParetoAlpha = d.Float()
		}
		d.Close()
		s.Source = sp
	}
	if d.Key("faulty_links") {
		for ok := d.Elems(); ok; ok = d.Next() {
			s.FaultyLinks = append(s.FaultyLinks, d.Str())
		}
	}
	if d.Key("islands") {
		for ok := d.Elems(); ok; ok = d.Next() {
			var isl nocsim.Island
			d.Open()
			d.Need("x0")
			isl.X0 = d.Int()
			d.Need("y0")
			isl.Y0 = d.Int()
			d.Need("x1")
			isl.X1 = d.Int()
			d.Need("y1")
			isl.Y1 = d.Int()
			d.Need("speed")
			isl.Speed = d.Float()
			d.Close()
			s.Islands = append(s.Islands, isl)
		}
	}
	d.Need("load")
	s.Load = d.Float()
	d.Need("policy")
	s.Policy = nocsim.PolicyKind(d.Str())
	if d.Key("calibration") {
		c := new(nocsim.Calibration)
		d.Open()
		d.Need("saturation_rate")
		c.SaturationRate = d.Float()
		d.Need("lambda_max")
		c.LambdaMax = d.Float()
		d.Need("target_delay_ns")
		c.TargetDelayNs = d.Float()
		d.Close()
		s.Calibration = c
	}
	d.Need("fnode_hz")
	s.FNodeHz = d.Float()
	d.Need("fmin_hz")
	s.FMinHz = d.Float()
	d.Need("fmax_hz")
	s.FMaxHz = d.Float()
	if d.Key("control_period") {
		s.ControlPeriod = d.Int64()
	}
	if d.Key("ki") {
		s.KI = d.Float()
	}
	if d.Key("kp") {
		s.KP = d.Float()
	}
	if d.Key("freq_levels") {
		s.FreqLevels = d.Int()
	}
	if d.Key("transient") {
		s.Transient = d.Bool()
	}
	d.Need("seed")
	s.Seed = d.Int64()
	if d.Key("quick") {
		s.Quick = d.Bool()
	}
	if d.Key("workers") {
		s.Workers = d.Int()
	}
	d.Close()
}
