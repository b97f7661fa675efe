package manifest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifestJSON feeds the manifest decoder arbitrary bytes, as a worker
// decodes a plan off the network and a coordinator off disk. A manifest
// that decodes must answer Sum, NumPoints, Offsets and Point(i) for every
// i without panicking: Offsets runs from 0 to NumPoints in panel order,
// and Point refuses the indices on either side of the range.
func FuzzManifestJSON(f *testing.F) {
	// Committed plans and scenarios, the scenarios as one-panel plans.
	for _, pattern := range []string{"testdata/*.json", "../testdata/*.json"} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			f.Add([]byte(`{"name":"s","points":2,"panels":[{"label":"a","grid":{"base":` + string(data) + `,"loads":[0.1,0.2],"policies":["rmsd"]}}]}`))
		}
	}
	// Planner output: a coarse plan and the refinement Refine derives.
	parent := refineParent([]float64{0.1, 0.2, 0.3, 0.35, 0.4})
	parent.RefineBudget = 6
	child, err := Refine(parent, refineResults(parent, kneeDelays(5), nil), 6)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []*Manifest{parent, child} {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"fig":"legacy","panels":[{"grid":{"base":{}}},{"grid":{"base":{},"loads":[]}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		if json.Unmarshal(data, &m) != nil {
			return
		}
		_, _ = Sum(&m)
		n := m.NumPoints()
		off := m.Offsets()
		if len(off) != len(m.Panels)+1 || off[0] != 0 || off[len(off)-1] != n {
			t.Fatalf("offsets %v for %d panels and %d points", off, len(m.Panels), n)
		}
		// Every point, unless the plan is too big to walk in a fuzz run
		// (its grids cross loads with policies): then each panel's ends.
		for p := range m.Panels {
			last := off[p+1] - 1
			for i := off[p]; i <= last; i++ {
				if n > 1<<14 && i != off[p] {
					i = last
				}
				if panel, _, _ := m.Point(i); panel != p {
					t.Fatalf("point %d resolves to panel %d, offsets %v put it in %d", i, panel, off, p)
				}
			}
		}
		for _, i := range []int{-1, n} {
			if _, _, err := m.Point(i); err == nil {
				t.Fatalf("point %d of %d resolved", i, n)
			}
		}
	})
}
