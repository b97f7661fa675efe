package nocsim

import "testing"

// TestAppRunSetupAllocs pins what setting up a run of an app scenario
// allocates once the process has run one: normalizing, validating and
// resolving the scenario, and building its policy and injector. The app
// graphs, their traffic matrices, row rates and destination pattern are
// built once per process (apps.Lookup), so what is left is the run's own:
// its rates, injector and policy. The bound is the count measured then,
// plus one; rebuilding the graphs and tables for each run took 134.
func TestAppRunSetupAllocs(t *testing.T) {
	s := Scenario{App: "h264", Quick: true, Seed: 1}
	setup := func() {
		n := s.normalized()
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		r, err := n.resolve()
		if err != nil {
			t.Fatal(err)
		}
		pol, err := r.buildPolicy(Calibration{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.simParams(n.Load, pol, false, n.Seed)
		if err != nil {
			t.Fatal(err)
		}
		p.Injector.Release()
	}
	setup() // the first run of the process builds the tables
	allocs := testing.AllocsPerRun(20, setup)
	t.Logf("set-up of an h264 run: %.1f allocations", allocs)
	const bound = 8
	if allocs > bound {
		t.Errorf("set-up of an h264 run: %.1f allocations, want at most %d", allocs, bound)
	}
}
