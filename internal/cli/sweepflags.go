package cli

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"repro/internal/queue"
	"repro/internal/sweep"
	"repro/nocsim"
	"repro/nocsim/manifest"
)

// SweepFlags is the flag block of the commands that plan or produce
// figures. PlanFlags registers the planning subset cmd/nocsimd serves
// from; RunFlags adds what figures and report need to choose where the
// points are computed and whether to refine; MaxPointsFlag is figures'
// own. A flag a command does not register reads as its zero value. After
// Parse, Check validates every cross-flag rule and the accessors turn the
// values into the sweep package's terms.
type SweepFlags struct {
	fs *flag.FlagSet

	Quick    *bool
	Points   *int
	Seed     *int64
	Workers  *int
	Manifest *string
	Resume   *bool

	Coordinator  *string
	authToken    *string
	Adaptive     *bool
	refineBudget *int
	MaxPoints    *int
}

// PlanFlags registers -quick -points -seed -workers -manifest -resume on
// fs. points is the -points default; scope prefixes each usage line for
// a command in which the block applies to one mode only ("serve: ").
func PlanFlags(fs *flag.FlagSet, points int, scope, workersUsage string) *SweepFlags {
	return &SweepFlags{
		fs:       fs,
		Quick:    fs.Bool("quick", false, scope+"shorter windows and smaller grids"),
		Points:   fs.Int("points", points, scope+"samples per curve (0 = 8, or 4 with -quick)"),
		Seed:     fs.Int64("seed", 1, scope+"random seed"),
		Workers:  WorkersFlag(fs, workersUsage),
		Manifest: fs.String("manifest", "", scope+"persist resolved-grid manifests and completed points under this directory"),
		Resume:   fs.Bool("resume", false, scope+"with -manifest: reuse stored manifests and completed points, running only the missing ones"),

		Coordinator: new(string), authToken: new(string),
		Adaptive: new(bool), refineBudget: new(int), MaxPoints: new(int),
	}
}

// RunFlags registers the planning subset plus -coordinator -auth-token
// -adaptive -refine-budget: the block shared by figures and report.
func RunFlags(fs *flag.FlagSet, points int) *SweepFlags {
	f := PlanFlags(fs, points, "", "concurrent simulation points (default GOMAXPROCS, 1 = serial); results are identical either way")
	f.Coordinator = fs.String("coordinator", "", "compute through this nocsimd coordinator URL and reassemble tables from its journal")
	f.authToken = AuthTokenFlag(fs, "bearer token for a -coordinator that runs with -auth-token")
	f.Adaptive = fs.Bool("adaptive", false, "two-phase adaptive sweep: coarse pass, then refine where the curves bend")
	f.refineBudget = fs.Int("refine-budget", 16, "with -adaptive: max extra simulation points the refinement pass may add")
	return f
}

// MaxPointsFlag adds -max-points to the block.
func (f *SweepFlags) MaxPointsFlag() {
	f.MaxPoints = f.fs.Int("max-points", 0, "stop each figure after this many new points (0 = no limit); for testing interrupted runs")
}

// Check rejects invalid values and meaningless combinations with the
// shared wording. Call it after Parse.
func (f *SweepFlags) Check() error {
	if err := CheckWorkers(*f.Workers); err != nil {
		return err
	}
	if *f.Coordinator != "" && (*f.Manifest != "" || *f.Resume || *f.MaxPoints > 0) {
		return errors.New("-coordinator is exclusive with -manifest/-resume/-max-points: the coordinator owns the journal")
	}
	if *f.Resume && *f.Manifest == "" {
		return errors.New("-resume needs -manifest")
	}
	if *f.MaxPoints < 0 {
		return fmt.Errorf("-max-points must be >= 0 (got %d); 0 means no limit", *f.MaxPoints)
	}
	if *f.MaxPoints > 0 && *f.Manifest == "" {
		return errors.New("-max-points needs -manifest") // sweep.Executor.Open says why
	}
	if *f.Adaptive && *f.MaxPoints > 0 {
		return errors.New("-adaptive is exclusive with -max-points: refinement needs the whole coarse pass (interrupt and -resume instead)")
	}
	return CheckRefine(*f.Adaptive, *f.refineBudget, wasSet(f.fs, "refine-budget"),
		*f.Manifest != "" || *f.Coordinator != "")
}

// Options returns the planning options the flags select.
func (f *SweepFlags) Options() sweep.Options {
	return sweep.Options{Quick: *f.Quick, Points: *f.Points, Seed: *f.Seed, Workers: *f.Workers}
}

// Executor returns where the flags say the points are computed and
// kept: through the -coordinator when one is named, else in this
// process, over the -manifest directory when there is one.
func (f *SweepFlags) Executor() (ex sweep.Executor, err error) {
	if *f.Coordinator != "" {
		return sweep.Executor{Client: &queue.Client{
			Base:  strings.TrimRight(*f.Coordinator, "/"),
			Token: AuthToken(f.fs, *f.authToken),
		}}, nil
	}
	ex = sweep.Executor{Resume: *f.Resume, Limit: *f.MaxPoints}
	if *f.Manifest != "" {
		ex.Store, err = manifest.NewDirStore(*f.Manifest)
	}
	return ex, err
}

// RefineBudget returns what sweep.Generate takes as its budget: the
// -refine-budget value with -adaptive, zero (no refinement) without.
func (f *SweepFlags) RefineBudget() int {
	if !*f.Adaptive {
		return 0
	}
	return *f.refineBudget
}

// SetupSummary renders the process's cumulative calibration and set-up
// counters as the one line figures -progress and report log on exit.
func SetupSummary() string {
	searches, searchesReused, calsReused, probesCancelled := nocsim.CalibrationStats()
	return fmt.Sprintf("calibration: %d saturation searches run, %d reused; %d calibrations reused; %d probes cancelled; set-up: %s",
		searches, searchesReused, calsReused, probesCancelled, nocsim.FabricStats())
}
