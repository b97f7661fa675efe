// Package manifest is the shared job layer between planning a sweep and
// executing it anywhere: a Manifest is an ordered list of panels, each a
// resolved nocsim.Grid, flattened into one global index space of
// self-contained simulation points. Because the grids are resolved
// (calibration pinned) before the manifest is written, any point can be
// re-run on any machine — after a crash, from a resumed local run, or on
// a remote worker leasing points from a coordinator — and reproduce its
// number bit for bit.
//
// The package owns the four pieces every executor shares:
//
//   - Manifest and Point(i): global index → self-contained Scenario;
//   - Run: the in-process executor (fan missing points across the exp
//     worker pool, saving each completed point as it lands);
//   - DirStore and Journal: the on-disk form — <name>.manifest.json for
//     the plan, <name>.points.jsonl as the crash-safe (index, result)
//     journal that resumed runs and the queue coordinator both reassemble
//     from;
//   - Refine and MergeRefined: an adaptive plan's refinement, a pure
//     function of the plan and its results wherever it is derived.
//
// internal/sweep plans manifests and renders their results into tables;
// internal/queue serves their points as expiring leases over HTTP. Both
// are consumers of this package.
package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/nocsim"
)

// A Manifest is the serialized job form of one study: every panel's
// resolved nocsim.Grid, flattened into one ordered list of
// self-contained points.
type Manifest struct {
	// Name identifies the manifest; stores and coordinators key their
	// files and jobs by it ("fig7", "period", ...).
	Name string `json:"name"`
	// Quick, Points and Seed record the planning options the manifest was
	// built with; rendering reads them, and a resumed or distributed run
	// must reuse them.
	Quick  bool  `json:"quick,omitempty"`
	Points int   `json:"points"`
	Seed   int64 `json:"seed"`
	// RefineBudget > 0 makes the plan adaptive: Refine derives a child of
	// at most this many extra points from its results. Omitted when zero,
	// so fixed-grid sums do not change; a child has none (one level).
	RefineBudget int `json:"refine_budget,omitempty"`
	// Panels are the study's sub-grids in presentation order.
	Panels []Panel `json:"panels"`
}

// UnmarshalJSON accepts both the current wire form and the legacy one
// that keyed the identifier as "fig" (written while the manifest
// machinery lived inside internal/sweep), so stored manifest
// directories from before the rename still resume.
func (m *Manifest) UnmarshalJSON(data []byte) error {
	type plain Manifest // no methods: avoids recursing into this func
	aux := struct {
		*plain
		Fig string `json:"fig"`
	}{plain: (*plain)(m)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	if m.Name == "" {
		m.Name = aux.Fig
	}
	return nil
}

// Panel is one sub-study of a manifest: a label ("tornado", "vc2", ...)
// and the resolved grid that measures it.
type Panel struct {
	Label string      `json:"label"`
	Grid  nocsim.Grid `json:"grid"`
}

// NumPoints returns the total number of simulation points across the
// manifest's panels.
func (m *Manifest) NumPoints() int {
	n := 0
	for _, p := range m.Panels {
		n += p.Grid.Len()
	}
	return n
}

// Offsets returns the starting global point index of each panel, plus a
// final entry holding NumPoints — the map renderers use to slice a flat
// result list back into panels.
func (m *Manifest) Offsets() []int {
	off := make([]int, len(m.Panels)+1)
	for i, p := range m.Panels {
		off[i+1] = off[i] + p.Grid.Len()
	}
	return off
}

// Sum fingerprints a resolved plan: the hex digest of the manifest's
// canonical JSON form. Two manifests share a sum exactly when every
// planning knob — name, options, panel labels, resolved grids including
// pinned calibrations — is identical, so the sum is a safe identity for
// cross-machine result exchange (the queue coordinator stamps it on
// leases and checks it on posts) and for caches of anything derived from
// a complete plan (the results service keys rendered tables by it).
func Sum(m *Manifest) (string, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// Point resolves global point index i to its panel and self-contained
// scenario. The scenario carries its own derived RNG stream (see
// nocsim.Grid.Point), so running it with nocsim.Run reproduces the same
// result on any machine.
func (m *Manifest) Point(i int) (panel int, sc nocsim.Scenario, err error) {
	off := m.Offsets()
	if i < 0 || i >= off[len(off)-1] {
		return 0, nocsim.Scenario{}, fmt.Errorf("manifest: point %d out of range [0, %d)", i, off[len(off)-1])
	}
	panel = sort.SearchInts(off[1:], i+1)
	sc, err = m.Panels[panel].Grid.Point(i - off[panel])
	return panel, sc, err
}
