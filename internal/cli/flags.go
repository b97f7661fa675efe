package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// WorkersFlag registers the -workers flag shared by every command: a
// positive concurrency bound defaulting to GOMAXPROCS. Validate the
// parsed value with CheckWorkers after flag.Parse.
func WorkersFlag(fs *flag.FlagSet, usage string) *int {
	return fs.Int("workers", runtime.GOMAXPROCS(0), usage)
}

// CheckWorkers rejects a non-positive -workers value with the shared
// error wording (results never depend on the value — only wall clock —
// so the only invalid inputs are the meaningless ones).
func CheckWorkers(n int) error {
	if n <= 0 {
		return fmt.Errorf("-workers must be positive (got %d); use 1 for serial", n)
	}
	return nil
}

// AuthTokenFlag registers the -auth-token flag shared by the queue
// commands (coordinator, workers, -coordinator clients). Read the
// parsed value with AuthToken, which falls back to $NOCSIM_TOKEN — the
// env route keeps the secret out of process listings and shell history.
// The flag's registered default stays empty on purpose: baking the env
// value in would print the secret in -h output and in the usage text of
// every flag-parse error.
func AuthTokenFlag(fs *flag.FlagSet, usage string) *string {
	return fs.String("auth-token", "", usage+" (default $NOCSIM_TOKEN)")
}

// wasSet reports whether the named flag was passed explicitly on the
// command line (Visit only walks set flags). Call after Parse.
func wasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// CheckRefine rejects meaningless adaptive flag combinations with the
// shared wording. persistent says whether the run has somewhere durable
// to put the coarse pass and its refinement (-manifest or -coordinator);
// without one the refinement manifest would be computed and thrown away,
// unresumable and invisible to the results store.
func CheckRefine(adaptive bool, budget int, budgetSet, persistent bool) error {
	if !adaptive {
		if budgetSet {
			return fmt.Errorf("-refine-budget needs -adaptive (the budget only bounds the refinement pass)")
		}
		return nil
	}
	if budget <= 0 {
		return fmt.Errorf("-refine-budget must be positive with -adaptive (got %d)", budget)
	}
	if !persistent {
		return fmt.Errorf("-adaptive needs a journal for the coarse pass: pass -manifest DIR or -coordinator URL")
	}
	return nil
}

// AuthToken resolves the parsed -auth-token value after flag.Parse: the
// flag when set, else $NOCSIM_TOKEN. An explicitly passed
// -auth-token "" disables auth even with the env var exported — the
// documented "empty = open" escape hatch — which is why the env
// fallback only applies when the flag was not given at all.
func AuthToken(fs *flag.FlagSet, flagValue string) string {
	if flagValue != "" || wasSet(fs, "auth-token") {
		return flagValue
	}
	return os.Getenv("NOCSIM_TOKEN")
}
