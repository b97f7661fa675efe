package nocsim

import (
	"context"
	"testing"
)

// StubSearch makes every saturation search until the end of the test
// return rate(s), s being the scenario the search stage hands it, instead
// of running probes. The reference runs stay real. Both memo levels start
// empty and get their entries back at the end, so a stub rate never
// reaches another test.
func StubSearch(t testing.TB, rate func(s Scenario) float64) {
	stubSearch(t, func(r *resolved) float64 { return rate(r.Scenario) })
}

// stubSearch is StubSearch handing the stub the resolved scenario, probe
// parameters included.
func stubSearch(t testing.TB, rate func(r *resolved) float64) {
	t.Helper()
	search := saturationSearch
	sats, cals := saturations.swap(nil), calibrations.swap(nil)
	saturationSearch = func(_ context.Context, r *resolved) (float64, error) {
		calStats.searches.Add(1)
		return rate(r), nil
	}
	t.Cleanup(func() {
		saturationSearch = search
		saturations.swap(sats)
		calibrations.swap(cals)
	})
}

// swap replaces the memo's entries and returns the old ones.
func (m *memo[V]) swap(entries map[[32]byte]*memoEntry[V]) map[[32]byte]*memoEntry[V] {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.entries
	m.entries = entries
	return old
}
