package sim

import (
	"cmp"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/freelist"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/stats"
)

// fabricKey identifies networks that are interchangeable once Reset: the
// same configuration and the same set of faulted channels. Islands are
// not part of it — Reset removes them and every run installs its own.
type fabricKey struct {
	cfg noc.Config
	// faults is the fault set in canonical form: the links in ascending
	// (from, to) order, written "from>to" and comma-separated. The order
	// the caller listed them in does not change the fabric.
	faults string
}

func newFabricKey(cfg noc.Config, faults []noc.Link) fabricKey {
	key := fabricKey{cfg: cfg}
	if len(faults) > 0 {
		sorted := slices.Clone(faults)
		slices.SortFunc(sorted, func(a, b noc.Link) int {
			return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
		})
		var b strings.Builder
		for _, l := range sorted {
			b.WriteString(l.String())
			b.WriteByte(',')
		}
		key.faults = b.String()
	}
	return key
}

// maxPooledSlots is the largest fabric, in flit buffer slots (nodes ×
// ports × VCs × depth; 4000 on the paper's mesh, 10240 on an 8x8), that
// releaseFabric keeps: about 2 MB of arrays. A larger one is left to the
// collector, which together with the free list's own bounds caps what the
// list can retain at freelist.MaxKeys × freelist.MaxPerKey × 2 MB, and at
// 15 MB for the paper's mesh. In practice it holds one network per
// concurrent run for each mesh used in the last freelist.IdleOps/2 runs.
const maxPooledSlots = 1 << 16

// A fabric is a network, the delay histogram a run on it fills and the
// buffer its power segments go to: the things a run needs that the next
// run on the same key can reuse.
type fabric struct {
	net    *noc.Network
	delayH *stats.Histogram
	segs   []power.Segment
}

// fabrics holds the fabrics of finished runs for the next run on the
// same key. A sweep simulates hundreds of points on one mesh, and
// resetting a network costs a fraction of building one.
var fabrics freelist.List[fabricKey, *fabric]

// acquireFabric returns a fabric for key in as-built state: one from the
// free list, Reset here — whatever its last run left in it, a cancelled or
// aborted run's in-flight traffic and an extended histogram range
// included, is gone before this run sees it — or a new one. The caller
// owns it until releaseFabric.
func acquireFabric(key fabricKey, faults []noc.Link) (*fabric, error) {
	if fb, ok := fabrics.Get(key); ok {
		fb.net.Reset()
		fb.delayH.Reset()
		fb.segs = fb.segs[:0]
		return fb, nil
	}
	net, err := noc.NewNetworkWithFaults(key.cfg, faults)
	if err != nil {
		return nil, err
	}
	return &fabric{net: net, delayH: newDelayHistogram()}, nil
}

// releaseFabric offers a fabric whose run is over, its result read, to
// later runs. The caller must not touch it afterwards.
func releaseFabric(key fabricKey, fb *fabric) {
	// The arrival callback closes over the finished run's engine, and the
	// list should not keep that alive until the next acquisition.
	fb.net.OnArrive = nil
	c := key.cfg
	if c.Nodes()*noc.NumPorts*c.VCs*c.BufDepth <= maxPooledSlots {
		fabrics.Put(key, fb)
	}
}

// FabricStats returns the process's cumulative fabric counters: networks
// built, runs served by resetting a network an earlier run built, and
// networks dropped to keep the free list inside its bounds.
func FabricStats() (built, reused, evicted int64) { return fabrics.Stats() }

// Process-wide second-core counters: runs that borrowed a spare core and
// the cycles they stepped split across it (see noc.Spare).
var spareRuns, shardedCycles atomic.Int64

func countSpareUse(net *noc.Network) {
	borrowed, cycles := net.SpareUse()
	if borrowed {
		spareRuns.Add(1)
	}
	shardedCycles.Add(cycles)
}

// SpareStats returns the process's cumulative second-core counters: runs
// that borrowed a spare core, and network cycles stepped on two
// goroutines.
func SpareStats() (runs, cycles int64) { return spareRuns.Load(), shardedCycles.Load() }
