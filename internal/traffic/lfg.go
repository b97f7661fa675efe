package traffic

import "math/rand"

// lfg is a bit-identical clone of math/rand's default source, the
// additive lagged-Fibonacci generator x[n] = x[n−607] + x[n−273] mod 2⁶⁴
// over a 607-word ring. It exists so the injector can run many Bernoulli
// trials in one tight loop (scan) instead of paying an interface call and
// an int→float divide per trial; it implements rand.Source64, so a
// *rand.Rand wrapped around it hands Pattern.Dest the very stream the
// stdlib source would.
type lfg struct {
	tap, feed int
	vec       [lfgLen]uint64
}

const (
	lfgLen = 607
	lfgTap = 273
	mask63 = 1<<63 - 1
	// resampleMin is the smallest 63-bit draw k for which float64(k)/2⁶³
	// rounds up to 1.0; rand.Float64 throws such a draw away and draws
	// again inside the same call.
	resampleMin = 1<<63 - 512
)

// The stdlib fills the ring from a Lehmer generator, x ← 48271·x mod
// 2³¹−1: twenty steps to warm up, then three per slot, whose outputs are
// shifted together and XORed with an entry of a fixed table (rngCooked).
// It takes each step by Schrage's method, a divide and a multiply on a
// chain 1841 steps long. Three steps are one multiplication by 48271³, so
// here three independent chains — one per output of a slot — advance a
// slot at a time, and since 2³¹ ≡ 1 modulo 2³¹−1 each reduction is a
// shift and an add.
const (
	lehmerM = 1<<31 - 1
	lehmerA = 48271
	// Untyped constant arithmetic is exact, so these are 48271³ and
	// 48271²¹ modulo 2³¹−1.
	lehmerA3  = lehmerA * lehmerA * lehmerA % lehmerM
	lehmerA21 = lehmerA3 * lehmerA3 * lehmerA3 * lehmerA3 * lehmerA3 * lehmerA3 * lehmerA3 % lehmerM
)

// lehmerMul returns a·b mod 2³¹−1 for a and b in [1, 2³¹−1). The product
// is never a multiple of the prime modulus, so one conditional subtraction
// finishes the reduction.
func lehmerMul(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// lfgCooked is the stdlib's additive seeding table, recovered once per
// process rather than copied: seedFrom yields the ring the stdlib seeds
// for some seed, and XORing out the Lehmer part fill computes for the same
// seed leaves the table.
var lfgCooked = func() [lfgLen]uint64 {
	var seeded, lehmer lfg
	seeded.seedFrom(rand.NewSource(1).(rand.Source64))
	lehmer.fill(1, &[lfgLen]uint64{})
	for i := range seeded.vec {
		seeded.vec[i] ^= lehmer.vec[i]
	}
	return seeded.vec
}()

// Seed implements rand.Source: the stream that follows is the one
// rand.NewSource(seed) produces, for every seed.
func (g *lfg) Seed(seed int64) { g.fill(seed, &lfgCooked) }

// fill seeds the ring as the stdlib does, with cooked as the table.
func (g *lfg) fill(seed int64, cooked *[lfgLen]uint64) {
	g.tap, g.feed = 0, lfgLen-lfgTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311 // the stdlib's stand-in for the one seed Lehmer cannot leave
	}
	a := lehmerMul(uint64(seed), lehmerA21)
	b := lehmerMul(a, lehmerA)
	c := lehmerMul(b, lehmerA)
	for i := range g.vec {
		g.vec[i] = a<<40 ^ b<<20 ^ c ^ cooked[i]
		a, b, c = lehmerMul(a, lehmerA3), lehmerMul(b, lehmerA3), lehmerMul(c, lehmerA3)
	}
}

// seedFrom positions g at the start of the stream of src, which must be a
// freshly seeded stdlib source, using nothing but its outputs: every
// draw overwrites one slot with its output, walking down from feed and
// wrapping once, so after lfgLen draws the ring is exactly those outputs
// and both indices are back where Seed put them. Undoing the additions,
// last draw first, then recovers the seeded ring: draw i added the slot
// lfgTap above its own (mod lfgLen), which is the slot 606−i, so the
// undo walks that operand up from slot 0.
func (g *lfg) seedFrom(src rand.Source64) {
	const feed = lfgLen - lfgTap
	g.tap, g.feed = 0, feed
	for i := feed - 1; i >= 0; i-- {
		g.vec[i] = src.Uint64()
	}
	for i := lfgLen - 1; i >= feed; i-- {
		g.vec[i] = src.Uint64()
	}
	for j := 0; j < lfgTap; j++ {
		g.vec[j+feed] -= g.vec[j]
	}
	for j := lfgTap; j < lfgLen; j++ {
		g.vec[j-lfgTap] -= g.vec[j]
	}
}

// step moves both ring indices one draw forward.
func (g *lfg) step() {
	if g.tap--; g.tap < 0 {
		g.tap += lfgLen
	}
	if g.feed--; g.feed < 0 {
		g.feed += lfgLen
	}
}

// Uint64 implements rand.Source64.
func (g *lfg) Uint64() uint64 {
	g.step()
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return x
}

// Int63 implements rand.Source.
func (g *lfg) Int63() int64 { return int64(g.Uint64() & mask63) }

// scan runs the trials `rand.Float64() < p`, with p encoded as
// thresh = hitThreshold(p), until one hits or limit of them have missed.
// It returns the number of misses and whether the last trial hit, and
// leaves the generator exactly where that many Float64 calls would.
func (g *lfg) scan(thresh uint64, limit int64) (misses int64, hit bool) {
	tap, feed := g.tap, g.feed
	for misses < limit && !hit {
		// Take the draws in runs over which neither ring index wraps, so
		// the loop that does the work carries no wrap test and no bounds
		// check. An index of 0 stands for lfgLen: the next draw uses the
		// slot below it.
		if tap == 0 {
			tap = lfgLen
		}
		if feed == 0 {
			feed = lfgLen
		}
		n := int(min(int64(tap), int64(feed), limit-misses))
		a, b := g.vec[feed-n:feed], g.vec[tap-n:tap]
		b = b[:len(a)]
		resampled := 0
		j := len(a) - 1
		for ; j >= 0; j-- {
			x := a[j] + b[j]
			a[j] = x
			if k := x & mask63; k < thresh {
				hit = true
				break
			} else if k >= resampleMin {
				resampled++ // Float64 draws again: same trial, next draw
			}
		}
		drawn := n - 1 - j // j ran out at −1, or stopped on the hit
		if hit {
			drawn++  // the hit is a draw
			misses-- // but not a miss
		}
		misses += int64(drawn - resampled)
		tap -= drawn
		feed -= drawn
	}
	g.tap, g.feed = tap, feed
	return misses, hit
}

// hitThreshold returns the T ≤ resampleMin for which a 63-bit draw k
// makes `rand.Float64() < p` true exactly when k < T. Float64 is
// float64(k)/2⁶³ (not the 53-bit form), both scalings by 2⁶³ are exact
// and the int→float rounding is monotone in k, so T is the smallest k
// with float64(k) ≥ p·2⁶³; draws at or above resampleMin never decide a
// trial, which also makes resampleMin the threshold for p ≥ 1.
func hitThreshold(p float64) uint64 {
	y := p * (1 << 63)
	lo, hi := uint64(0), uint64(resampleMin)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid) >= y {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
