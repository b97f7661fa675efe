package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/freelist"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/traffic"
	"repro/internal/volt"
)

// flushFabrics empties the free list, so the next run of every fabric
// builds its network: the cold path the tests compare the warm one against.
func flushFabrics() { fabrics.Flush() }

// runSpec is everything about a run that does not name its fabric: two
// runs with different specs on one (config, faults) pair share networks.
type runSpec struct {
	islands []noc.Island
	source  traffic.SourceConfig
	policy  string
	load    float64
	seed    int64
	// end makes the run stop early: "cancel" cancels its context from
	// inside the third control update, "abort" overloads it until the
	// backlog guard gives up, "panic" blows up in the third control update.
	end string
}

// cutShort is a policy that ends the run from inside a control update.
type cutShort struct {
	dvfs.Policy
	updates int
	cut     func()
}

func (c *cutShort) Next(m dvfs.Measurement) float64 {
	if c.updates++; c.updates == 3 {
		c.cut()
	}
	return c.Policy.Next(m)
}

// run executes spec on the fabric (cfg, faults) with short windows.
func (spec runSpec) run(cfg noc.Config, faults []noc.Link) (Result, error) {
	inj, err := traffic.NewInjector(cfg, traffic.NewUniform(cfg), spec.load, spec.seed)
	if err != nil {
		return Result{}, err
	}
	if err := inj.SetSource(spec.source); err != nil {
		return Result{}, err
	}
	var pol dvfs.Policy
	switch spec.policy {
	case "nodvfs":
		pol = dvfs.NewNoDVFS(1e9)
	case "rmsd":
		pol, err = dvfs.NewRMSD(1e9, 0.3, dvfs.Range{FMin: volt.FMin, FMax: volt.FMax})
	case "dmsd":
		pol, err = dvfs.NewDMSD(80, dvfs.Range{FMin: volt.FMin, FMax: volt.FMax}, dvfs.DefaultKI, dvfs.DefaultKP)
	}
	if err != nil {
		return Result{}, err
	}
	pm := power.Default28nm()
	p := Params{
		Noc: cfg, Faults: faults, Islands: spec.islands,
		Injector: inj, Policy: pol, VF: volt.New(), Power: &pm,
		ControlPeriod: 400, Warmup: 600, Measure: 2400,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	switch spec.end {
	case "cancel":
		p.Policy = &cutShort{Policy: pol, cut: cancel}
	case "abort":
		p.backlogPerNode = 1
	case "panic":
		p.Policy = &cutShort{Policy: pol, cut: func() { panic("policy blew up") }}
	}
	return RunContext(ctx, p)
}

// genFabric draws a mesh and a fault set that leaves it connected.
func genFabric(t *testing.T, rng *rand.Rand) (noc.Config, []noc.Link) {
	t.Helper()
	shapes := [][2]int{{4, 4}, {5, 3}, {2, 6}, {5, 5}, {9, 8}} // 9x8: bitmasks two words wide
	shape := shapes[rng.Intn(len(shapes))]
	cfg := noc.Config{
		Width: shape[0], Height: shape[1],
		VCs: []int{2, 4, 8}[rng.Intn(3)], BufDepth: []int{2, 4}[rng.Intn(2)],
		PacketSize: []int{4, 20}[rng.Intn(2)], Routing: noc.Routing(rng.Intn(3)),
	}
	if cfg.Routing == noc.RoutingO1TURN || rng.Intn(2) == 0 {
		return cfg, nil
	}
	var faults []noc.Link
	for len(faults) < 1+rng.Intn(3) {
		x, y := rng.Intn(cfg.Width-1), rng.Intn(cfg.Height)
		l := noc.Link{From: cfg.Node(x, y), To: cfg.Node(x+1, y)}
		if rng.Intn(2) == 0 {
			l.From, l.To = l.To, l.From
		}
		faults = append(faults, l)
	}
	if _, err := noc.NewNetworkWithFaults(cfg, faults); err != nil {
		return cfg, nil // duplicate link or disconnected mesh
	}
	return cfg, faults
}

func genSpec(rng *rand.Rand, cfg noc.Config) runSpec {
	spec := runSpec{
		policy: []string{"nodvfs", "rmsd", "dmsd"}[rng.Intn(3)],
		load:   0.02 + 0.2*rng.Float64(),
		seed:   rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		x, y := rng.Intn(cfg.Width), rng.Intn(cfg.Height)
		spec.islands = []noc.Island{{X0: 0, Y0: 0, X1: x, Y1: y, Speed: []float64{0.5, 0.75}[rng.Intn(2)]}}
	}
	switch rng.Intn(3) {
	case 1:
		spec.source = traffic.SourceConfig{Kind: traffic.SourceMMPP, BurstRatio: 3, BurstLen: 40}
	case 2:
		spec.source = traffic.SourceConfig{Kind: traffic.SourcePareto, BurstRatio: 3, BurstLen: 40, ParetoAlpha: 1.5}
	}
	return spec
}

// TestReusedFabricChangesNothing: for generated pairs of runs on one
// fabric, the second run's Result on the network the first one used —
// finished, cancelled mid-flight or aborted on backlog — equals, bit for
// bit, its Result on a network built for it.
func TestReusedFabricChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(20261001))
	pairs := 30
	if testing.Short() {
		pairs = 9
	}
	for i := 0; i < pairs; i++ {
		cfg, faults := genFabric(t, rng)
		x, y := genSpec(rng, cfg), genSpec(rng, cfg)
		x.end = []string{"", "cancel", "abort"}[i%3]
		if x.end == "abort" {
			x.load, x.source = 0.9, traffic.SourceConfig{}
		}
		t.Run(fmt.Sprintf("%d_%dx%d_%s_then_%s_%s", i, cfg.Width, cfg.Height, x.policy, y.policy, x.end), func(t *testing.T) {
			flushFabrics()
			want, err := y.run(cfg, faults)
			if err != nil {
				t.Fatal(err)
			}

			flushFabrics()
			first, err := x.run(cfg, faults)
			switch x.end {
			case "cancel":
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("first run: err %v, want context.Canceled", err)
				}
			case "abort":
				if err != nil || !first.Saturated || first.MeasuredNodeCycles >= 2400 {
					t.Fatalf("first run did not abort on backlog: %+v, err %v", first, err)
				}
			default:
				if err != nil {
					t.Fatal(err)
				}
			}
			_, reused0, _ := FabricStats()
			got, err := y.run(cfg, faults)
			if err != nil {
				t.Fatal(err)
			}
			if _, reused, _ := FabricStats(); reused != reused0+1 {
				t.Fatal("the second run did not take the first run's network")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("on a reused network\n got %+v\nwant %+v", got, want)
			}
			if want.Packets == 0 {
				t.Fatal("the compared run measured no packets")
			}
		})
	}
}

// TestFaultOrderSharesFabric: the key is the fault set, not the list.
func TestFaultOrderSharesFabric(t *testing.T) {
	cfg := noc.DefaultConfig()
	a := []noc.Link{{From: 1, To: 2}, {From: 7, To: 6}, {From: 1, To: 0}}
	b := []noc.Link{a[2], a[0], a[1]}
	if newFabricKey(cfg, a) != newFabricKey(cfg, b) {
		t.Error("the same faults in another order make another key")
	}
	if newFabricKey(cfg, a) == newFabricKey(cfg, a[:2]) || newFabricKey(cfg, nil) == newFabricKey(cfg, a[:1]) {
		t.Error("different fault sets share a key")
	}
}

// TestConcurrentRunsShareOneKey: eight goroutines running on one fabric
// at once (run with -race) each get the result a lone run gets, from at
// most eight networks.
func TestConcurrentRunsShareOneKey(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	specs := make([]runSpec, 6)
	want := make([]Result, len(specs))
	rng := rand.New(rand.NewSource(8))
	for i := range specs {
		specs[i] = genSpec(rng, cfg)
		flushFabrics()
		var err error
		if want[i], err = specs[i].run(cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	flushFabrics()
	built0, _, _ := FabricStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range specs {
				k := (i + g) % len(specs)
				got, err := specs[k].run(cfg, nil)
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d, spec %d: result differs from the lone run's", g, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if built, _, _ := FabricStats(); built-built0 > 8 {
		t.Errorf("8 concurrent users of one key built %d networks", built-built0)
	}
}

// TestPanickedRunsFabricIsDropped: a network whose run panicked is not
// handed to the next run.
func TestPanickedRunsFabricIsDropped(t *testing.T) {
	cfg := noc.DefaultConfig()
	spec := genSpec(rand.New(rand.NewSource(1)), cfg)
	flushFabrics()
	want, err := spec.run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	flushFabrics()
	blown := spec
	blown.end = "panic"
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the run did not panic")
			}
		}()
		blown.run(cfg, nil)
	}()
	if n := fabrics.Len(newFabricKey(cfg, nil)); n != 0 {
		t.Fatalf("the free list holds %d networks after a panicked run", n)
	}
	got, err := spec.run(cfg, nil)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("run after a panicked one: %+v, err %v; want %+v", got, err, want)
	}
}

// TestFabricListIsBounded fills the free list past its per-key and its
// key bound, and offers it a fabric too large to keep.
func TestFabricListIsBounded(t *testing.T) {
	flushFabrics()
	cfg := noc.Config{Width: 2, Height: 1, VCs: 1, BufDepth: 1, PacketSize: 1}
	net := func() *fabric {
		n, err := noc.NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return &fabric{net: n, delayH: newDelayHistogram()}
	}
	key := newFabricKey(cfg, nil)
	for i := 0; i < freelist.MaxPerKey+5; i++ {
		releaseFabric(key, net())
	}
	if n := fabrics.Len(key); n != freelist.MaxPerKey {
		t.Errorf("one key holds %d networks, want %d", n, freelist.MaxPerKey)
	}
	for vcs := 2; vcs < 2+freelist.MaxKeys; vcs++ {
		cfg.VCs = vcs
		releaseFabric(newFabricKey(cfg, nil), net())
	}
	if n := fabrics.Len(key); n != 0 {
		t.Errorf("the oldest of %d keys still holds %d networks", freelist.MaxKeys+1, n)
	}

	cfg = noc.Config{Width: 16, Height: 16, VCs: 8, BufDepth: 8, PacketSize: 20} // 81920 slots
	hugeKey := newFabricKey(cfg, nil)
	releaseFabric(hugeKey, net())
	if n := fabrics.Len(hugeKey); n != 0 {
		t.Error("a fabric past maxPooledSlots was kept")
	}
	flushFabrics()
}

// TestSecondRunAllocations: with the fabric reused — the network and the
// delay histogram — a run's set-up is four small objects (the engine and
// the power integrator among them) whatever the mesh size. The injector
// is the caller's and built outside.
func TestSecondRunAllocations(t *testing.T) {
	cfg := noc.DefaultConfig()
	pm := power.Default28nm()
	const runs = 10
	injectors := make([]*traffic.Injector, runs+2) // + the warm-up run and AllocsPerRun's own
	for i := range injectors {
		var err error
		if injectors[i], err = traffic.NewInjector(cfg, traffic.NewUniform(cfg), 0.02, 1); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	oneCycle := func() {
		p := Params{Noc: cfg, Injector: injectors[next], Policy: dvfs.NewNoDVFS(1e9), VF: volt.New(), Power: &pm,
			Warmup: 1, Measure: 1}
		next++
		if _, err := Run(p); err != nil {
			t.Fatal(err)
		}
	}
	flushFabrics()
	oneCycle() // builds the network
	if allocs := testing.AllocsPerRun(runs, oneCycle); allocs > 4 {
		t.Errorf("a one-cycle run on a reused network allocates %.0f objects, want at most 4", allocs)
	} else {
		t.Logf("a one-cycle run on a reused network allocates %.0f objects", allocs)
	}
}
