package traffic

import "math/rand"

// newTestRand returns a deterministic RNG for tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// sourceOf returns the injector's on-off source (the zero value for plain
// Bernoulli sources).
func sourceOf(inj *Injector) SourceConfig {
	if inj.burst == nil {
		return SourceConfig{}
	}
	return *inj.burst
}

// onFraction returns the fraction of active nodes whose source is in the
// ON state (1 for Bernoulli sources).
func onFraction(inj *Injector) float64 {
	if inj.burst == nil {
		return 1
	}
	active, on := 0, 0
	for s := range inj.probs {
		if inj.probs[s] == 0 {
			continue
		}
		active++
		if inj.nodes[s].on {
			on++
		}
	}
	if active == 0 {
		return 1
	}
	return float64(on) / float64(active)
}
