// Command nocsimd is the distributed manifest work-queue daemon: the
// coordinator (serve mode) and the worker (with -worker) behind
// horizontally scaled figure runs.
//
// Serve mode plans — or, with -resume, reloads — figure manifests and
// serves their points over HTTP as expiring leases, journaling every
// posted result through the manifest directory so a crashed coordinator
// resumes where it stopped:
//
//	nocsimd -addr 127.0.0.1:9090 -fig fig7 -quick -manifest runs/dist
//
// Worker mode attaches to a coordinator and computes leased points until
// the coordinator reports all work done:
//
//	nocsimd -worker http://127.0.0.1:9090 -workers 8
//
// Workers are stateless: kill one mid-run and its leases expire and are
// re-issued; results are bit-identical wherever a point executes, so the
// tables reassembled from a distributed run match a single-process run
// byte for byte (cmd/figures -coordinator does the reassembly).
//
// For real fleets: -auth-token SECRET (or NOCSIM_TOKEN in the
// environment, which keeps the secret out of process listings) makes the
// coordinator reject every request that doesn't carry the token as
// "Authorization: Bearer SECRET" — pass the same flag/env to workers and
// to figures/report -coordinator. GET /metrics serves Prometheus-format
// counters (leases outstanding, points/s, re-issued leases, per-worker
// attribution). Lease deadlines adapt to each manifest's observed point
// latencies once enough have been seen; -lease-ttl is the fallback until
// then.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/queue"
	"repro/internal/sweep"
	"repro/nocsim/results"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocsimd: ")

	var (
		workerURL = flag.String("worker", "", "run as a worker against this coordinator URL (instead of serving)")
		addr      = flag.String("addr", "127.0.0.1:9090", "serve: listen address")
		figs      = flag.String("fig", "all", "serve: comma-separated figures to plan and serve — same tokens as cmd/figures -fig (paper numbers or manifest names) or 'all'")
		resultsDB = flag.String("results", "", "serve: also mirror every plan and accepted point into this results-store file (what cmd/resultsd serves)")
		leaseTTL  = flag.Duration("lease-ttl", 60*time.Second, "serve: fallback lease time before an unanswered point is re-issued (adapts to observed point latencies once warmed up)")
		maxLeases = flag.Int("max-leases", 1024, "serve: cap on outstanding leases across all manifests")
		exitDone  = flag.Bool("exit-when-done", false, "serve: exit once every served manifest is complete")
		poll      = flag.Duration("poll", 500*time.Millisecond, "worker: back-off between lease attempts while no point is available")
		authToken = cli.AuthTokenFlag(flag.CommandLine, "shared bearer token: serve mode requires it of every request, worker mode attaches it; empty disables auth")
	)
	pf := cli.PlanFlags(flag.CommandLine, 0, "serve: ", "concurrent simulations in this process (planning calibrations in serve mode, leased points in worker mode)")
	cpuProfile, memProfile := cli.ProfileFlags()
	flag.Parse()

	if err := pf.Check(); err != nil {
		log.Fatal(err)
	}
	// A zero or negative TTL would re-issue every lease immediately and a
	// non-positive cap would grant no leases at all: refuse loudly at
	// startup instead of silently substituting the library defaults.
	if *leaseTTL <= 0 {
		log.Fatalf("-lease-ttl must be positive (got %s)", *leaseTTL)
	}
	if *maxLeases <= 0 {
		log.Fatalf("-max-leases must be positive (got %d)", *maxLeases)
	}
	token := cli.AuthToken(flag.CommandLine, *authToken)
	exp.SetLeafBudget(*pf.Workers)
	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
	}()

	ctx, stop := cli.SignalContext()
	defer stop()

	if *workerURL != "" {
		if err := work(ctx, *workerURL, *pf.Workers, *poll, token); err != nil && ctx.Err() == nil {
			log.Fatal(err)
		}
		return
	}
	if err := serve(ctx, serveConfig{
		addr: *addr, figs: *figs, plan: pf, results: *resultsDB,
		leaseTTL: *leaseTTL, maxLeases: *maxLeases, exitDone: *exitDone,
		authToken: token,
	}); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
}

func work(ctx context.Context, url string, workers int, poll time.Duration, token string) error {
	w := &queue.Worker{
		Client:  &queue.Client{Base: strings.TrimRight(url, "/"), Token: token},
		Workers: workers,
		Poll:    poll,
		OnPoint: func(name string, index int) { log.Printf("posted %s point %d", name, index) },
	}
	log.Printf("worker attached to %s (%d lease loops)", url, workers)
	if err := w.Run(ctx); err != nil {
		return err
	}
	log.Print("coordinator reports all work done")
	return nil
}

type serveConfig struct {
	addr      string
	figs      string
	plan      *cli.SweepFlags // the planning options, and -manifest/-resume: where plans and journals live
	results   string
	leaseTTL  time.Duration
	maxLeases int
	exitDone  bool
	authToken string
}

// selectFigs resolves the -fig list (sweep.ResolveFigures: the same
// vocabulary cmd/figures accepts) into the manifest figures to serve.
func selectFigs(figs string) ([]string, error) {
	out, fig5, err := sweep.ResolveFigures(figs)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		if fig5 {
			return nil, fmt.Errorf("fig 5 is analytic: it has no simulation points to serve")
		}
		return nil, fmt.Errorf("nothing selected by -fig %q", figs)
	}
	return out, nil
}

func serve(ctx context.Context, cfg serveConfig) error {
	figs, err := selectFigs(cfg.figs)
	if err != nil {
		return err
	}
	local, err := cfg.plan.Executor()
	if err != nil {
		return err
	}
	var resultsStore *results.Store
	if cfg.results != "" {
		if resultsStore, err = results.Open(cfg.results); err != nil {
			return err
		}
		defer resultsStore.Close()
	}

	coord := queue.New(queue.Config{
		LeaseTTL: cfg.leaseTTL, MaxLeases: cfg.maxLeases,
		AuthToken: cfg.authToken, Store: local.Store, Results: resultsStore,
	})
	defer coord.Close()

	// Bind before planning: workers and -coordinator clients can connect
	// immediately and poll until their manifest appears.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	server := &http.Server{Handler: coord.Handler()}

	// shutdown is the graceful exit: stop granting leases, drain the
	// HTTP server's in-flight requests (late posts still land), then
	// flush and fsync the journals and the results store so nothing a
	// worker paid for is lost to the exit.
	shutdown := func() error {
		coord.Quiesce()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := server.Shutdown(shutdownCtx)
		if cerr := coord.Close(); err == nil {
			err = cerr
		}
		if resultsStore != nil {
			if cerr := resultsStore.Close(); err == nil {
				err = cerr
			}
		}
		log.Print("journals flushed and synced; exiting")
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()
	if cfg.authToken != "" {
		log.Printf("serving on %s (bearer-token auth required; metrics at /metrics)", ln.Addr())
	} else {
		log.Printf("serving on %s (no auth token — any peer may lease and post; metrics at /metrics)", ln.Addr())
	}

	for _, fig := range figs {
		m, have, err := local.Open(ctx, fig, cfg.plan.Options())
		if err != nil {
			server.Close()
			return fmt.Errorf("planning %s: %w", fig, err)
		}
		if err := coord.Add(m, have); err != nil {
			server.Close()
			return err
		}
		log.Printf("serving %s: %d points (%d already journaled)", fig, m.NumPoints(), len(have))
	}
	// Sealing tells unscoped workers that "everything complete" now
	// really means done — before this, it would mean "planning not
	// finished, wait for more work".
	coord.Seal()
	log.Printf("all %d manifest(s) planned; fallback lease TTL %s (adapts to observed latencies), max %d outstanding leases",
		len(figs), cfg.leaseTTL, cfg.maxLeases)

	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			log.Print("signal received; draining leases and flushing journals")
			return shutdown()
		case err := <-serveErr:
			return err
		case <-ticker.C:
			if cfg.exitDone && coord.Complete() {
				log.Print("all manifests complete; exiting")
				return shutdown()
			}
		}
	}
}
