package noc

import "testing"

func TestValidateIslandsRejects(t *testing.T) {
	cfg := DefaultConfig()
	cases := map[string][]Island{
		"empty rect":   {{X0: 3, Y0: 3, X1: 2, Y1: 3, Speed: 0.5}},
		"outside mesh": {{X0: 0, Y0: 0, X1: 9, Y1: 9, Speed: 0.5}},
		"negative":     {{X0: -1, Y0: 0, X1: 1, Y1: 1, Speed: 0.5}},
		"zero speed":   {{X0: 0, Y0: 0, X1: 1, Y1: 1}},
		"fast island":  {{X0: 0, Y0: 0, X1: 1, Y1: 1, Speed: 1.5}},
	}
	for name, islands := range cases {
		if err := ValidateIslands(cfg, islands); err == nil {
			t.Errorf("%s: ValidateIslands accepted %+v", name, islands)
		}
	}
	ok := []Island{{X0: 0, Y0: 0, X1: 4, Y1: 4, Speed: 1}, {X0: 2, Y0: 2, X1: 3, Y1: 3, Speed: 0.25}}
	if err := ValidateIslands(cfg, ok); err != nil {
		t.Errorf("valid islands rejected: %v", err)
	}
}

// TestIslandSlowsDelivery: a packet crossing a half-speed island takes
// substantially longer than on a uniform mesh. The slowdown is less than
// the full 2x because staged link events still land on stalled cycles
// (the input-latch model): only pipeline stages and injection stall.
func TestIslandSlowsDelivery(t *testing.T) {
	latency := func(islands []Island) int64 {
		net, err := NewNetwork(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetIslands(islands); err != nil {
			t.Fatal(err)
		}
		var arrive int64 = -1
		net.OnArrive = func(p *Packet, cycle int64) { arrive = cycle }
		net.NewPacket(0, 24, 0, 0)
		for i := 0; i < 10_000 && arrive < 0; i++ {
			net.Step()
		}
		if arrive < 0 {
			t.Fatal("packet never arrived")
		}
		return arrive
	}
	full := latency(nil)
	half := latency([]Island{{X0: 0, Y0: 0, X1: 4, Y1: 4, Speed: 0.5}})
	if half < full*3/2 || half > full*5/2 {
		t.Errorf("half-speed island latency %d, full-speed %d (want 1.5x-2.5x)", half, full)
	}
}

// TestIslandOverlapLaterWins: the later island in the list owns the
// overlapping routers.
func TestIslandOverlapLaterWins(t *testing.T) {
	net, err := NewNetwork(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = net.SetIslands([]Island{
		{X0: 0, Y0: 0, X1: 4, Y1: 4, Speed: 0.5},
		{X0: 2, Y0: 2, X1: 2, Y1: 2, Speed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	center := DefaultConfig().Node(2, 2)
	if got := net.islandOf[center]; got != 1 {
		t.Errorf("overlapped node %d assigned to island %d, want 1", center, got)
	}
	if got := net.islandOf[0]; got != 0 {
		t.Errorf("corner node assigned to island %d, want 0", got)
	}
	if got := net.islands; len(got) != 2 {
		t.Errorf("%d islands installed, want 2", len(got))
	}
}
