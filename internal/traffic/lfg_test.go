package traffic

import (
	"math"
	"math/rand"
	"testing"
)

// lfgSeeds includes the seeds the stdlib special-cases: 0 (replaced by a
// constant), negatives and values beyond the 2³¹−1 modulus.
var lfgSeeds = []int64{0, 1, -1, 42, -987654321, 1<<40 + 3, math.MinInt64, 1<<31 - 1}

// TestLFGMatchesMathRand: the clone, seeded only from the stdlib source's
// outputs, reproduces its stream from the first draw, through the mix of
// calls the injector and the patterns make, well past three turns of the
// ring.
func TestLFGMatchesMathRand(t *testing.T) {
	seeder := rand.NewSource(0).(rand.Source64)
	for _, seed := range lfgSeeds {
		var viaSeed, viaSeeder lfg
		viaSeed.Seed(seed)
		// The injector's path: one stdlib source re-seeded per node.
		seeder.Seed(seed)
		viaSeeder.seedFrom(seeder)
		if viaSeed != viaSeeder {
			t.Fatalf("seed %d: Seed and seedFrom over a reused source disagree", seed)
		}
		want := rand.New(rand.NewSource(seed))
		got := rand.New(&viaSeed)
		for i := 0; i < 4*lfgLen; i++ {
			switch i % 4 {
			case 0:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, g, w)
				}
			case 1:
				n := 2 + i%97
				if w, g := want.Intn(n), got.Intn(n); w != g {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, want %d", seed, i, n, g, w)
				}
			case 2:
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, g, w)
				}
			default:
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, g, w)
				}
			}
		}
	}
}

// TestSeedMatchesStdlibForEverySeedClass: direct seeding gives the ring
// rand.NewSource gives — shown by 2000 draws, more than three turns of the
// ring — on the seeds the stdlib's reduction treats specially (zero, both
// signs, the extremes, multiples of the Lehmer modulus and their
// neighbours) and on a thousand arbitrary ones.
func TestSeedMatchesStdlibForEverySeedClass(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		m, -m, 2 * m, -2 * m, m * m, m - 1, m + 1, -m - 1, 1 << 31, 89482311}
	rng := newTestRand(607)
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	for _, seed := range seeds {
		var g lfg
		g.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2000; i++ {
			if w, got := want.Uint64(), g.Uint64(); w != got {
				t.Fatalf("seed %d draw %d: %#x, stdlib %#x", seed, i, got, w)
			}
		}
	}
}

// trialLoop is what scan replaces: up to limit `Float64() < p` trials.
func trialLoop(rng *rand.Rand, p float64, limit int64) (misses int64, hit bool) {
	for misses < limit {
		if rng.Float64() < p {
			return misses, true
		}
		misses++
	}
	return misses, false
}

// TestScanMatchesTrialLoop: scan finds the same gaps as a Float64() < p
// loop on the stdlib generator and leaves the stream at the same place,
// with a destination-like draw after every hit as in the injector.
func TestScanMatchesTrialLoop(t *testing.T) {
	for _, p := range []float64{1e-4, 0.0123, 0.5, 1} {
		for _, seed := range lfgSeeds[:4] {
			var g lfg
			g.Seed(seed)
			grand := rand.New(&g)
			want := rand.New(rand.NewSource(seed))
			thresh := hitThreshold(p)
			draws := int64(0)
			for round := 0; draws < 50_000; round++ {
				// Limits from 1 to beyond a ring turn, so runs end on a
				// hit, on the limit and across ring wraps.
				limit := int64(1 + (round*37)%(2*lfgLen))
				wm, wh := trialLoop(want, p, limit)
				gm, gh := g.scan(thresh, limit)
				if wm != gm || wh != gh {
					t.Fatalf("p %g seed %d round %d: scan = %d,%v, trial loop = %d,%v", p, seed, round, gm, gh, wm, wh)
				}
				if wh {
					if w, g := want.Intn(24), grand.Intn(24); w != g {
						t.Fatalf("p %g seed %d round %d: draw after hit %d, want %d", p, seed, round, g, w)
					}
				}
				draws += wm + 1
			}
			if w, g := want.Uint64(), g.Uint64(); w != g {
				t.Fatalf("p %g seed %d: streams apart after the scans", p, seed)
			}
		}
	}
}

// TestHitThresholdBoundary: around the threshold, k < T decides exactly as
// stdlib's float compare does, for probabilities at and next to every edge
// of the encoding.
func TestHitThresholdBoundary(t *testing.T) {
	ps := []float64{
		0, math.SmallestNonzeroFloat64, 1e-300, 0x1p-63, 0x1p-62, 3e-19, 1e-12, 1e-4, 0.0123, 1.0 / 3,
		0x1p-10,           // p·2⁶³ = 2⁵³: the last exactly representable integer range
		0x1p-10 + 0x1p-62, // just past it: float64(k) starts rounding
		0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		0.02 / 20, 0.39 / 20, // the benchmark's loads
		math.Nextafter(1, 0), 1, 1.5, math.Inf(1),
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		ps = append(ps, rng.Float64(), rng.Float64()*rng.Float64()*1e-3)
	}
	for _, p := range ps {
		T := hitThreshold(p)
		if T > resampleMin {
			t.Fatalf("p %g: threshold %d above the resample range", p, T)
		}
		for d := int64(-2); d <= 2; d++ {
			k := int64(T) + d
			if k < 0 || k >= resampleMin {
				continue // not a draw that decides a trial
			}
			stdlib := float64(k)/(1<<63) < p
			if (uint64(k) < T) != stdlib {
				t.Errorf("p %g T %d: k %d hits %v, stdlib says %v", p, T, k, uint64(k) < T, stdlib)
			}
		}
	}
	if T := hitThreshold(1); T != resampleMin {
		t.Errorf("hitThreshold(1) = %d, want every deciding draw to hit (%d)", T, uint64(resampleMin))
	}
	if T := hitThreshold(0); T != 0 {
		t.Errorf("hitThreshold(0) = %d, want 0", T)
	}
}

// TestScanResample: a draw of 2⁶³−512 or more makes stdlib's Float64 draw
// again within the same call. scan must swallow it without counting a
// trial. The draw is forced at the head of the ring, mid-run and at a ring
// wrap, and the reference is stdlib's own Float64 running over a copy of
// the same generator.
func TestScanResample(t *testing.T) {
	for _, p := range []float64{1e-9, 0.5, 1} {
		for _, ahead := range []int{0, 1, 5, lfgLen - lfgTap - 1, lfgLen - lfgTap, lfgTap + 7} {
			for _, draw := range []uint64{resampleMin, resampleMin + 1, mask63, 1<<63 | resampleMin} {
				var g lfg
				g.Seed(7)
				// Make the draw `ahead` steps from now come out as `draw`.
				probe := g
				for i := 0; i < ahead; i++ {
					probe.Uint64()
				}
				probe.step()
				g.vec[probe.feed] = draw - probe.vec[probe.tap]
				check := g
				for i := 0; i < ahead; i++ {
					check.Uint64()
				}
				if got := check.Uint64(); got != draw {
					t.Fatalf("ahead %d: forced draw came out as %#x, want %#x", ahead, got, draw)
				}

				ref := g
				want := rand.New(&ref)
				const limit = 400 // past the farthest forced draw
				wm, wh := trialLoop(want, p, limit)
				gm, gh := g.scan(hitThreshold(p), limit)
				if wm != gm || wh != gh {
					t.Errorf("p %g ahead %d draw %#x: scan = %d,%v, stdlib = %d,%v", p, ahead, draw, gm, gh, wm, wh)
				}
				if g != ref {
					t.Errorf("p %g ahead %d draw %#x: scan consumed a different number of draws than stdlib", p, ahead, draw)
				}
			}
		}
	}
}
