// Command resultsd is the results service: the query API and live
// dashboard over the persistent single-file results store that
// coordinators (nocsimd -results) and backfill imports write.
//
// Serve mode follows a store read-only — safe to run while a
// coordinator is still appending to it — and serves stored plans,
// filtered point queries, and on-demand table rendering with renders
// cached by plan fingerprint:
//
//	resultsd -addr 127.0.0.1:9091 -store runs/results.jsonl
//
// With -coordinator the dashboard at / also shows the live fleet —
// points/s, per-manifest progress, per-worker attribution — by proxying
// the coordinator's /metrics (attaching -auth-token/$NOCSIM_TOKEN, so
// the browser needs no fleet credentials):
//
//	resultsd -store runs/results.jsonl -coordinator http://10.0.0.7:9090
//
// Backfill mode ingests the journals of an existing -manifest directory
// into the store and exits; -export writes one plan back out in exactly
// the journal's line format (byte-identical for serially written
// journals):
//
//	resultsd -store runs/results.jsonl -import runs/dist
//	resultsd -store runs/results.jsonl -export fig7 > fig7.points.jsonl
//
// -compact rewrites the store in place, dropping plans superseded by a
// newer plan of the same name (adaptive refinement re-runs, re-planned
// figures) and duplicate point lines; queries answer identically before
// and after. Like -import it opens the store read-write, so it must not
// run while a coordinator is ingesting or followers are serving:
//
//	resultsd -store runs/results.jsonl -compact
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/queue"
	"repro/internal/resultsrv"
	"repro/nocsim/manifest"
	"repro/nocsim/results"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("resultsd: ")

	var (
		addr        = flag.String("addr", "127.0.0.1:9091", "serve: listen address")
		storePath   = flag.String("store", "", "results store file (required)")
		importDir   = flag.String("import", "", "backfill: ingest this manifest directory's journals into the store, then exit")
		compact     = flag.Bool("compact", false, "rewrite the store dropping superseded plans and duplicate points, then exit")
		exportRef   = flag.String("export", "", "write one plan (name or fingerprint) to stdout as points-journal lines, then exit")
		coordinator = flag.String("coordinator", "", "serve: proxy this coordinator's /metrics for the live dashboard")
		authToken   = cli.AuthTokenFlag(flag.CommandLine, "bearer token attached when proxying a -coordinator that runs with -auth-token")
	)
	flag.Parse()

	if *storePath == "" {
		log.Fatal("-store is required")
	}
	token := cli.AuthToken(flag.CommandLine, *authToken)

	if *importDir != "" || *compact || *exportRef != "" {
		if err := oneShot(*storePath, *importDir, *compact, *exportRef); err != nil {
			log.Fatal(err)
		}
		return
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	if err := serve(ctx, *addr, *storePath, *coordinator, token); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
}

// oneShot runs the import, compact and/or export maintenance modes
// (in that order: ingest first, shrink what it superseded, then read
// out). Import and compact open the store read-write, so they must not
// run against a store a live coordinator is ingesting into.
func oneShot(storePath, importDir string, compact bool, exportRef string) error {
	if importDir != "" {
		st, err := manifest.NewDirStore(importDir)
		if err != nil {
			return err
		}
		s, err := results.Open(storePath)
		if err != nil {
			return err
		}
		plans, points, err := s.ImportDir(st)
		if err != nil {
			s.Close()
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		log.Printf("imported %s: %d manifest(s), %d new point(s) into %s", importDir, plans, points, storePath)
	}
	if compact {
		s, err := results.Open(storePath)
		if err != nil {
			return err
		}
		plans, points, err := s.Compact()
		if err != nil {
			s.Close()
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		log.Printf("compacted %s: dropped %d superseded plan(s), %d dead point line(s)", storePath, plans, points)
	}
	if exportRef != "" {
		s, err := results.OpenReadOnly(storePath)
		if err != nil {
			return err
		}
		sum, ok := s.Resolve(exportRef)
		if !ok {
			return errors.New("unknown plan " + exportRef)
		}
		if err := s.ExportJournal(os.Stdout, sum); err != nil {
			return err
		}
	}
	return nil
}

func serve(ctx context.Context, addr, storePath, coordinator, token string) error {
	// Read-only: the coordinator (or an import) owns the file's tail;
	// this process follows it, picking up new records per query.
	store, err := results.OpenReadOnly(storePath)
	if err != nil {
		return err
	}
	srv := &resultsrv.Server{Store: store}
	if coordinator != "" {
		srv.Coordinator = &queue.Client{Base: strings.TrimRight(coordinator, "/"), Token: token}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	server := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()
	if coordinator != "" {
		log.Printf("serving %s on %s (dashboard at /, live fleet via %s)", storePath, ln.Addr(), coordinator)
	} else {
		log.Printf("serving %s on %s (dashboard at /, store-only mode)", storePath, ln.Addr())
	}

	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return server.Shutdown(shutdownCtx)
	case err := <-serveErr:
		return err
	}
}
