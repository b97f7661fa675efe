package nocsim

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// Calibrate runs the paper's calibration recipe for the scenario:
// measure the saturation rate (load and policy fields are ignored), set
// λmax 10% below it, and set the DMSD target to the full-speed delay at
// λmax. The search fans its probe simulations across Scenario.Workers;
// the result is identical for every worker count.
//
// A calibration is a pure function of the scenario, so the process
// computes each distinct one once: a repeated call returns the stored
// values, concurrent calls for one scenario share a single search, and a
// scenario that differs from an earlier one only in its controller
// fields reuses that one's saturation search (see the package doc for
// what identifies a calibration).
func Calibrate(ctx context.Context, s Scenario) (Calibration, error) {
	s = s.normalized()
	if err := s.Validate(); err != nil {
		return Calibration{}, err
	}
	return calibrate(ctx, s)
}

// calibrate is Calibrate on a normalized, valid scenario: the reference
// run's stage on top of the search's.
func calibrate(ctx context.Context, s Scenario) (Calibration, error) {
	cal, reused, err := runStage(ctx, &calibrations, s, referenceStage(s), func(ctx context.Context, r *resolved) (Calibration, error) {
		rate, err := findSaturation(ctx, s)
		if err != nil {
			return Calibration{}, err
		}
		return r.calibrateAt(ctx, rate)
	})
	if reused {
		calStats.calibrationsReused.Add(1)
	}
	return cal, err
}

// FindSaturation measures the scenario's saturation injection rate (the
// first stage of Calibrate) in flits per node per node cycle. It belongs
// to the fabric and its traffic alone, and is computed once per process
// for each distinct pair, as Calibrate's results are.
func FindSaturation(ctx context.Context, s Scenario) (float64, error) {
	s = s.normalized()
	if err := s.Validate(); err != nil {
		return 0, err
	}
	return findSaturation(ctx, s)
}

// findSaturation is FindSaturation on a normalized, valid scenario: the
// search's stage.
func findSaturation(ctx context.Context, s Scenario) (float64, error) {
	rate, reused, err := runStage(ctx, &saturations, s, searchStage(s), saturationSearch)
	if reused {
		calStats.searchesReused.Add(1)
	}
	return rate, err
}

// saturationSearch is the search's stage run; the package's tests swap
// in a stub that counts its calls.
var saturationSearch = func(ctx context.Context, r *resolved) (float64, error) {
	calStats.searches.Add(1)
	rate, st, err := r.search(ctx)
	calStats.probesCancelled.Add(int64(st.cancelled))
	return rate, err
}

// referenceStage is the reference run's reduction: calibration runs pick
// their own loads and always run No-DVFS, and a pinned calibration is
// what the call replaces.
func referenceStage(s Scenario) Scenario {
	s.Load, s.Policy, s.Calibration = 0, "", nil
	s.Workers, s.PacketLog, s.TraceCapture = 0, nil, nil
	return s
}

// searchStage is the search's reduction: the reference run's, and the
// probes set their own windows and never actuate.
func searchStage(s Scenario) Scenario {
	s = referenceStage(s)
	s.ControlPeriod, s.Transient = 0, false
	return s
}

// runStage computes one stage of s's calibration: fn on red, the stage's
// reduction of s (the fields that cannot reach its runs zeroed), resolved
// and given s's Workers, PacketLog and TraceCapture, which say how it runs
// but not what it computes. Memo m is keyed by red's JSON form, so key and
// run cannot disagree, and a field not zeroed, one added later included,
// is in both: an oversight repeats a search, never reuses a wrong
// calibration. Observed runs bypass m.
func runStage[V any](ctx context.Context, m *memo[V], s, red Scenario, fn func(context.Context, *resolved) (V, error)) (V, bool, error) {
	run := func(ctx context.Context) (V, error) {
		r, err := red.resolve()
		if err != nil {
			return *new(V), err
		}
		r.Workers, r.PacketLog, r.TraceCapture = s.Workers, s.PacketLog, s.TraceCapture
		return fn(ctx, &r)
	}
	if s.observed() {
		val, err := run(ctx)
		return val, false, err
	}
	data, err := json.Marshal(red)
	if err != nil { // a NaN that slipped past Validate
		return *new(V), false, fmt.Errorf("nocsim: calibration key: %w", err)
	}
	return m.do(ctx, sha256.Sum256(data), run)
}

// observed reports whether a packet log or trace sink is attached: the
// scenario's calibration runs then write into it, so they have to happen
// and a stored result cannot stand in for them.
func (s Scenario) observed() bool { return s.PacketLog != nil || s.TraceCapture != nil }

// memoEntries bounds each level of the calibration memo. An entry is a
// key and at most three floats, so the bound only matters to a process
// that calibrates thousands of distinct scenarios; past it an arbitrary
// finished entry makes room.
const memoEntries = 4096

// The process-wide calibration memo: saturation rates by search key,
// complete calibrations by full key.
var (
	saturations  memo[float64]
	calibrations memo[Calibration]
)

// memo computes each key's value once. Callers that ask for a key while
// its computation is in flight wait for it instead of starting their own.
type memo[V any] struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{} // closed once val and err are set
	val  V
	err  error
}

// do returns the value stored for key, computing it with fn when there is
// none; reused reports that the value came from another call's work. Only
// successes are stored: when the call that was computing a key fails — it
// was cancelled, say — the callers waiting on it each compute the value
// under their own context rather than inherit its error. A caller whose
// own context ends while it waits returns ctx.Err().
func (m *memo[V]) do(ctx context.Context, key [sha256.Size]byte, fn func(context.Context) (V, error)) (val V, reused bool, err error) {
	m.mu.Lock()
	for e := m.entries[key]; e != nil; e = m.entries[key] {
		m.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return val, false, ctx.Err()
		}
		if e.err == nil {
			return e.val, true, nil
		}
		m.mu.Lock()
	}
	if m.entries == nil {
		m.entries = make(map[[sha256.Size]byte]*memoEntry[V])
	}
	if len(m.entries) >= memoEntries {
		for k, old := range m.entries {
			select {
			case <-old.done:
				delete(m.entries, k)
			default:
				continue // in flight: its waiters still need it
			}
			break
		}
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.entries[key] = e
	m.mu.Unlock()

	e.val, e.err = fn(ctx)
	if e.err != nil {
		// Unpublish before waking the waiters, so the first of them to
		// retry finds the key free.
		m.mu.Lock()
		delete(m.entries, key)
		m.mu.Unlock()
	}
	close(e.done)
	return e.val, false, e.err
}

var calStats struct {
	searches, searchesReused, calibrationsReused, probesCancelled atomic.Int64
}

// CalibrationStats returns the process's cumulative calibration counters:
// saturation searches actually run, searches answered from an earlier or
// concurrent one, whole calibrations answered that way, and probe
// simulations a search stopped (or never started) because a lower probe
// of the same round had already decided the bracket.
func CalibrationStats() (searches, searchesReused, calibrationsReused, probesCancelled int64) {
	return calStats.searches.Load(), calStats.searchesReused.Load(),
		calStats.calibrationsReused.Load(), calStats.probesCancelled.Load()
}
