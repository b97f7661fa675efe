package cli

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/sweep"
)

func TestCheckWorkers(t *testing.T) {
	if err := CheckWorkers(1); err != nil {
		t.Fatal(err)
	}
	if err := CheckWorkers(0); err == nil {
		t.Fatal("0 workers accepted")
	}
	if err := CheckWorkers(-3); err == nil {
		t.Fatal("negative workers accepted")
	}
}

func TestCheckRefine(t *testing.T) {
	cases := []struct {
		name                  string
		adaptive              bool
		budget                int
		budgetSet, persistent bool
		wantErr               string
	}{
		{name: "off", budget: 16},
		{name: "budget without adaptive", budget: 8, budgetSet: true,
			wantErr: "-refine-budget needs -adaptive"},
		{name: "adaptive with manifest", adaptive: true, budget: 16, persistent: true},
		{name: "adaptive explicit budget", adaptive: true, budget: 4, budgetSet: true, persistent: true},
		{name: "adaptive without journal", adaptive: true, budget: 16,
			wantErr: "pass -manifest DIR or -coordinator URL"},
		{name: "zero budget", adaptive: true, budget: 0, budgetSet: true, persistent: true,
			wantErr: "must be positive"},
		{name: "negative budget", adaptive: true, budget: -2, budgetSet: true, persistent: true,
			wantErr: "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckRefine(tc.adaptive, tc.budget, tc.budgetSet, tc.persistent)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestSweepFlagsCheck parses real argument lists through the shared flag
// block and checks every cross-flag rule, for the block as figures
// registers it (with -max-points), as report does (without) and as
// nocsimd does (the planning subset).
func TestSweepFlagsCheck(t *testing.T) {
	figures := func(fs *flag.FlagSet) *SweepFlags {
		f := RunFlags(fs, 0)
		f.MaxPointsFlag()
		return f
	}
	report := func(fs *flag.FlagSet) *SweepFlags { return RunFlags(fs, 6) }
	nocsimd := func(fs *flag.FlagSet) *SweepFlags { return PlanFlags(fs, 0, "serve: ", "workers") }

	cases := []struct {
		name     string
		register func(*flag.FlagSet) *SweepFlags
		args     string
		wantErr  string
	}{
		{"defaults", figures, "", ""},
		{"manifest resume limit", figures, "-manifest d -resume -max-points 2", ""},
		{"coordinator", figures, "-coordinator http://h:1 -auth-token s", ""},
		{"adaptive with manifest", figures, "-adaptive -refine-budget 4 -manifest d", ""},
		{"adaptive with coordinator", report, "-adaptive -coordinator http://h:1", ""},
		{"zero workers", figures, "-workers 0", "-workers must be positive"},
		{"coordinator with manifest", figures, "-coordinator http://h:1 -manifest d", "-coordinator is exclusive with -manifest/-resume/-max-points"},
		{"coordinator with resume", figures, "-coordinator http://h:1 -resume", "-coordinator is exclusive with"},
		{"coordinator with limit", figures, "-coordinator http://h:1 -max-points 1", "-coordinator is exclusive with"},
		{"report: coordinator with manifest", report, "-coordinator http://h:1 -manifest d", "-coordinator is exclusive with"},
		{"resume without manifest", figures, "-resume", "-resume needs -manifest"},
		{"nocsimd: resume without manifest", nocsimd, "-resume", "-resume needs -manifest"},
		{"nocsimd: resume with manifest", nocsimd, "-resume -manifest d -quick -points 2 -seed 3", ""},
		{"nocsimd: adaptive without manifest", nocsimd, "-adaptive -refine-budget 6", ""},
		{"nocsimd: budget without adaptive", nocsimd, "-refine-budget 6", "-refine-budget needs -adaptive"},
		{"nocsimd: zero budget", nocsimd, "-adaptive -refine-budget 0", "must be positive"},
		{"negative limit", figures, "-manifest d -max-points -1", "-max-points must be >= 0"},
		{"limit without manifest", figures, "-max-points 2", "-max-points needs -manifest"},
		{"adaptive with limit", figures, "-adaptive -manifest d -max-points 2", "-adaptive is exclusive with -max-points"},
		{"adaptive without journal", report, "-adaptive", "pass -manifest DIR or -coordinator URL"},
		{"budget without adaptive", report, "-refine-budget 4 -manifest d", "-refine-budget needs -adaptive"},
		{"zero budget", figures, "-adaptive -refine-budget 0 -manifest d", "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			f := tc.register(fs)
			if err := fs.Parse(strings.Fields(tc.args)); err != nil {
				t.Fatal(err)
			}
			err := f.Check()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestSweepFlagsAccessors: the parsed values come out in the sweep
// package's terms — options, with a refinement budget that is zero
// unless -adaptive asked for refinement, and executor.
func TestSweepFlagsAccessors(t *testing.T) {
	parse := func(args string) *SweepFlags {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := RunFlags(fs, 6)
		f.MaxPointsFlag()
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatal(err)
		}
		return f
	}
	dir := t.TempDir()
	f := parse("-quick -seed 7 -workers 3 -manifest " + dir + " -resume -max-points 2")
	if got, want := f.Options(), (sweep.Options{Quick: true, Points: 6, Seed: 7, Workers: 3}); got != want {
		t.Errorf("Options() = %+v, want %+v", got, want)
	}
	ex, err := f.Executor()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Store == nil || !ex.Resume || ex.Limit != 2 || ex.Client != nil {
		t.Errorf("Executor() = %+v, want a resuming, limited local executor over the -manifest store", ex)
	}
	if got := parse("-refine-budget 5").Options().RefineBudget; got != 0 {
		t.Errorf("Options().RefineBudget = %d without -adaptive, want 0", got)
	}

	t.Setenv("NOCSIM_TOKEN", "from-env")
	f = parse("-coordinator http://h:1/ -adaptive -refine-budget 5")
	ex, err = f.Executor()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Client == nil || ex.Client.Base != "http://h:1" || ex.Client.Token != "from-env" {
		t.Errorf("Executor() = %+v, want a client of http://h:1 carrying $NOCSIM_TOKEN", ex)
	}
	if got := f.Options().RefineBudget; got != 5 {
		t.Errorf("Options().RefineBudget = %d, want 5", got)
	}
	if ex, _ := parse("").Executor(); ex != (sweep.Executor{}) {
		t.Errorf("Executor() with no flags = %+v, want the zero Executor", ex)
	}
}

// TestMeshFlags parses argument lists through the single-run commands'
// block: defaults, an app's own mesh, and the refused typed zeros.
func TestMeshFlags(t *testing.T) {
	cases := []struct {
		name        string
		args        []string
		appMesh     bool
		width, vcs  int
		seed        int64
		quick       bool
		wantErr     string
		nonZeroFlag string
	}{
		{name: "defaults", width: 5, vcs: 8, seed: 1},
		{name: "set", args: []string{"-width", "8", "-height", "8", "-vcs", "2", "-seed", "7", "-quick"}, width: 8, vcs: 2, seed: 7, quick: true},
		{name: "app brings its mesh", appMesh: true, width: 0, vcs: 8, seed: 1},
		{name: "app with a width", args: []string{"-width", "6"}, appMesh: true, width: 6, vcs: 8, seed: 1},
		{name: "zero vcs", args: []string{"-vcs", "0"}, wantErr: "-vcs must be non-zero"},
		{name: "zero seed", args: []string{"-seed", "0"}, wantErr: "-seed must be non-zero"},
		{name: "caller's flag", args: []string{"-rate", "0"}, nonZeroFlag: "rate", wantErr: "-rate must be non-zero"},
		{name: "caller's flag unchecked", args: []string{"-rate", "0"}, width: 5, vcs: 8, seed: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			m := NewMeshFlags(fs)
			fs.Float64("rate", 0.2, "")
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			var nonZero []string
			if tc.nonZeroFlag != "" {
				nonZero = append(nonZero, tc.nonZeroFlag)
			}
			s, err := m.Scenario(tc.appMesh, nonZero...)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("error = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.Mesh.Width != tc.width || s.Mesh.VCs != tc.vcs || s.Seed != tc.seed || s.Quick != tc.quick {
				t.Errorf("scenario %+v", s)
			}
		})
	}
}
