package trace

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/noc"
)

func exampleTrace() *Injection {
	return &Injection{
		Width: 3, Height: 3, PacketSize: 4, Cycles: 100,
		Events: []InjectionEvent{
			{Cycle: 0, Src: 0, Dst: 8},
			{Cycle: 0, Src: 4, Dst: 1},
			{Cycle: 7, Src: 2, Dst: 6, Dim: 1},
			{Cycle: 99, Src: 8, Dst: 0},
		},
	}
}

func cfg3() noc.Config {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height, cfg.PacketSize = 3, 3, 4
	return cfg
}

func TestInjectionValidate(t *testing.T) {
	if err := exampleTrace().Validate(cfg3()); err != nil {
		t.Fatalf("example trace invalid: %v", err)
	}
	mutate := map[string]func(*Injection){
		"mesh mismatch":   func(tr *Injection) { tr.Width = 4 },
		"packet mismatch": func(tr *Injection) { tr.PacketSize = 20 },
		"zero cycles":     func(tr *Injection) { tr.Cycles = 0 },
		"event past end":  func(tr *Injection) { tr.Events[3].Cycle = 100 },
		"out of order":    func(tr *Injection) { tr.Events[0].Cycle = 50 },
		"src out of mesh": func(tr *Injection) { tr.Events[1].Src = 9 },
		"self traffic":    func(tr *Injection) { tr.Events[1].Dst = 4 },
	}
	for name, fn := range mutate {
		tr := exampleTrace()
		fn(tr)
		if err := tr.Validate(cfg3()); err == nil {
			t.Errorf("%s: Validate accepted the mutated trace", name)
		}
	}
}

func TestInjectionSortRestoresOrder(t *testing.T) {
	tr := exampleTrace()
	tr.Events[0], tr.Events[3] = tr.Events[3], tr.Events[0]
	if err := tr.Validate(cfg3()); err == nil {
		t.Fatal("shuffled trace validated")
	}
	// Canonical injection order: ascending cycle, then source.
	sort.SliceStable(tr.Events, func(i, j int) bool {
		if tr.Events[i].Cycle != tr.Events[j].Cycle {
			return tr.Events[i].Cycle < tr.Events[j].Cycle
		}
		return tr.Events[i].Src < tr.Events[j].Src
	})
	if err := tr.Validate(cfg3()); err != nil {
		t.Fatalf("sorted trace still invalid: %v", err)
	}
}

func TestInjectionMeanRateAndMatrix(t *testing.T) {
	tr := exampleTrace()
	want := float64(len(tr.Events)) * 4 / 100 / 9
	if got := tr.MeanRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanRate() = %g, want %g", got, want)
	}
	m := tr.Matrix()
	if m[0][8] != 1 || m[4][1] != 1 || m[2][6] != 1 || m[8][0] != 1 {
		t.Errorf("Matrix() missing recorded flows: %v", m)
	}
}

func TestInjectionJSONRoundTrip(t *testing.T) {
	tr := exampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInjection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Errorf("round trip changed the trace:\nbefore %+v\nafter  %+v", tr, back)
	}
}

func TestInjectionSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tr := exampleTrace()
	if err := SaveInjection(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := LoadInjection(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Errorf("save/load changed the trace")
	}
	if _, err := LoadInjection(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}
