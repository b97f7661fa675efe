package traffic

import (
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/trace"
)

// TestRecycledSlabChangesNothing: an injector built on the slab of one
// abandoned mid-run — on-off states set, schedules primed, generators
// thousands of draws in — emits the stream the stdlib-backed reference
// emits for its own seed, rates and source, as one built on new memory
// does.
func TestRecycledSlabChangesNothing(t *testing.T) {
	cfg := cfg5()
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slabs.Flush()
	dirty, err := NewInjector(cfg, NewUniform(cfg), 0.3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := dirty.SetSource(SourceConfig{Kind: SourcePareto, BurstRatio: 4, BurstLen: 30, ParetoAlpha: 1.3}); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3000; c++ {
		dirty.NodeCycle(net, 0)
	}
	slab := &dirty.nodes[0]
	dirty.Release()
	dirty.Release() // a second call has nothing left to hand over
	if n := slabs.Len(cfg.Nodes()); n != 1 {
		t.Fatalf("the free list holds %d slabs after one injector's Release, want 1", n)
	}

	for _, src := range []SourceConfig{{}, {Kind: SourceMMPP, BurstRatio: 3, BurstLen: 20}} {
		rates := UniformRates(cfg, 0.07)
		rates[3], rates[11] = 0, 0.9 // a silent node and a loud one
		_, reused0 := SlabStats()
		inj, err := NewInjectorRates(cfg, NewUniform(cfg), rates, -5)
		if err != nil {
			t.Fatal(err)
		}
		if _, reused := SlabStats(); reused != reused0+1 || &inj.nodes[0] != slab {
			t.Fatal("the injector was not built on the released slab")
		}
		ref := newRefInjector(cfg, NewUniform(cfg), rates, -5)
		if src.Kind != "" {
			ref.setSource(src)
			if err := inj.SetSource(src); err != nil {
				t.Fatal(err)
			}
		}
		var got trace.Injection
		inj.StartCapture(&got)
		for c := 0; c < 8000; c++ {
			ref.nodeCycle()
			inj.NodeCycle(net, 0)
		}
		net.Reset()
		if len(ref.events) == 0 || !reflect.DeepEqual(got.Events, ref.events) {
			t.Fatalf("source %q: %d events on a recycled slab, the reference has %d, or they differ",
				src.Kind, len(got.Events), len(ref.events))
		}
		inj.Release()
	}
}

// TestOversizeSlabIsNotKept: Release leaves the slab of a mesh past
// maxPooledNodes to the collector.
func TestOversizeSlabIsNotKept(t *testing.T) {
	cfg := noc.Config{Width: 33, Height: 32, VCs: 1, BufDepth: 1, PacketSize: 1}
	inj, err := NewInjector(cfg, NewUniform(cfg), 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj.Release()
	if n := slabs.Len(cfg.Nodes()); n != 0 {
		t.Errorf("the free list holds %d slabs of %d nodes", n, cfg.Nodes())
	}
}
