package results

import (
	"fmt"
	"slices"

	"repro/nocsim"
	"repro/nocsim/manifest"
)

// ImportJournal ingests one manifest and its completed points (a loaded
// DirStore journal) into the store, returning the plan's fingerprint and
// how many points were newly stored. Points are ingested in index order,
// so a store populated only by this import exports the same journal a
// serial run would have written, byte for byte (see ExportJournal). The
// import is idempotent — re-importing converges instead of duplicating —
// which is why the plan's points share one flush and fsync at the end: a
// crash before it loses lines that the next import writes again.
func (s *Store) ImportJournal(m *manifest.Manifest, points map[int]nocsim.Result) (sum string, added int, err error) {
	sum, err = s.AddManifest(m)
	if err != nil {
		return "", 0, err
	}
	idx := make([]int, 0, len(points))
	for i := range points {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.lines // a point line is written only for a point not yet stored
	for _, i := range idx {
		if err = s.addPointLocked(sum, i, points[i], false); err != nil {
			break
		}
	}
	added = s.lines - before
	if err == nil && added > 0 {
		err = s.syncLocked()
	}
	return sum, added, err
}

// ImportDir backfills every manifest stored in a DirStore directory —
// the journals accumulated by local -manifest runs and by coordinators —
// into the results store. It returns the number of manifests processed
// and points newly ingested.
func (s *Store) ImportDir(st *manifest.DirStore) (plans, points int, err error) {
	names, err := st.Names()
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		m, err := st.LoadManifest(name)
		if err != nil {
			return plans, points, err
		}
		if m == nil {
			continue
		}
		have, err := st.LoadPoints(name)
		if err != nil {
			return plans, points, fmt.Errorf("results: importing %s: %w", name, err)
		}
		_, added, err := s.ImportJournal(m, have)
		if err != nil {
			return plans, points, fmt.Errorf("results: importing %s: %w", name, err)
		}
		plans++
		points += added
	}
	return plans, points, nil
}
