// Package repro reproduces Casu & Giaccone, "Rate-based vs Delay-based
// Control for DVFS in NoC" (DATE 2015): a cycle-accurate virtual-channel
// mesh NoC simulator with a global DVFS domain, the paper's two policies
// (rate-based RMSD and delay-based DMSD with a PI loop), a 28-nm
// FDSOI-calibrated voltage/frequency and power model, and a benchmark
// harness that regenerates every figure of the paper's evaluation.
//
// # Public API
//
// The module's exported face is the nocsim package: a context-aware,
// JSON-serializable Scenario/Run/Sweep API. Write a scenario as a struct
// literal (zero fields take the paper's baseline), run it under a
// cancellable context, or cross it with loads × policies into a Grid
// whose points are self-contained jobs:
//
//	s := nocsim.Scenario{Pattern: "uniform", Load: 0.2}
//	res, err := nocsim.Run(ctx, s)
//
// See the nocsim package documentation and README.md for the quickstart.
//
// # Internals
//
// The substrates live under internal/:
//
//	internal/noc      cycle-accurate VC wormhole router mesh (the Booksim substitute)
//	internal/traffic  synthetic patterns, traffic matrices, node-clock injection
//	internal/apps     H.264 and VCE multimedia communication graphs (Fig. 9)
//	internal/volt     28-nm FDSOI F(Vdd) model (Fig. 5)
//	internal/dvfs     No-DVFS, RMSD, DMSD policies and the PI controller
//	internal/power    event-energy power model, priced over a run's (f, V) segments
//	internal/stats    streaming statistics
//	internal/sim      the two-clock-domain simulation engine (context-aware)
//	internal/exp      parallel deterministic experiment runner (worker pool)
//	internal/freelist keyed, bounded free list (reused networks and injector slabs)
//	internal/core     an adapter over nocsim kept only for bench/'s probes
//	internal/sweep    figure/table planners and renderers for the evaluation
//	internal/queue    HTTP work-queue: lease coordinator, client, worker loop
//	internal/resultsrv  results-service HTTP API: queries, cached renders, dashboard
//
// Every experiment grid — policy comparisons, saturation searches, figure
// panels, ablations — is fanned out across GOMAXPROCS workers by
// internal/exp. Each grid point is a self-contained closure owning an
// independent RNG stream derived from the root seed (exp.Seed, a
// SplitMix64 finalizer), results are collected in grid order, a panicking
// point is captured with its stack, and cancellation or first failure
// stops the grid — the engine loop itself observes the context, so
// in-flight simulations abort promptly. Output is byte-identical for any
// worker count — Workers=1 is the serial reference the
// golden-determinism tests compare against.
//
// Scheduling is depth-aware: worker pools bound goroutines per grid, but
// only leaf simulation runs hold slots of one process-wide budget
// (exp.SetLeafBudget), so nested grids — a figure panel whose points fan
// out their own sub-grids — never multiply the number of concurrently
// executing simulations beyond W, and since panel jobs never hold slots
// the scheme cannot deadlock.
//
// # Manifests, resume, and distributed runs
//
// Every figure and ablation in internal/sweep is planned as a manifest
// (package nocsim/manifest): the panels' nocsim.Grids are resolved
// (calibration pinned) up front, making each simulation point a
// self-contained JSON job addressed by one global index. The manifest
// plus its (index, result) journal — crash-safe, fsynced per line, torn
// tails skipped — is the single source of truth every executor shares:
//
//   - in-process: manifest.Run fans the missing points across the exp
//     engine (cmd/figures and cmd/report persist with -manifest DIR and
//     finish interrupted runs with -resume);
//   - distributed: cmd/nocsimd serves the points over HTTP as expiring
//     {manifest, index} leases (internal/queue); stateless workers
//     (nocsimd -worker) lease, run nocsim.Run, and post back with retry.
//     A dead worker's leases expire and are re-issued; the first result
//     for a point wins, so the journal holds each point exactly once,
//     and a restarted coordinator resumes from its journal.
//
// The work-queue is hardened for untrusted fleets: -auth-token (or
// $NOCSIM_TOKEN, kept out of process listings) makes the coordinator
// demand "Authorization: Bearer <token>" on every request — workers and
// -coordinator clients attach it, and wrong credentials fail fast with
// 401 instead of retrying. GET /metrics exposes Prometheus-format
// counters (leases outstanding, windowed points/s, re-issued leases,
// per-worker attribution):
//
//	curl -H "Authorization: Bearer $NOCSIM_TOKEN" http://HOST:9090/metrics
//
// A lease lives -lease-ttl (default 10s) and a worker renews it every
// third of that while it computes the point, so a lease expires only
// when its worker stops renewing, however long the point runs.
//
// Since every point carries its own derived RNG stream, tables
// reassembled from any mix of local, resumed and remote execution are
// byte-identical — cmd/figures -coordinator URL and cmd/report
// -coordinator URL join the computation as one more worker and render
// from the journal; CI smoke-tests the equivalence with a worker frozen
// mid-run until its lease is re-issued and an unauthenticated worker
// rejected. See README.md for the
// quickstart.
//
// # Adaptive sweeps
//
// Fixed grids spend most of their points on flat curve regions, while
// the claims live at the saturation knee and the policy crossovers.
// With -adaptive, cmd/figures and cmd/report run each figure as a
// two-phase plan (internal/sweep): the planned grid is the coarse
// pass; manifest.Refine scores every load interval by delay gradient,
// curvature and proximity to the measured knee and emits the winning
// midpoints — bounded by -refine-budget — as a child manifest whose
// name derives from the parent plan's fingerprint
// ("<fig>-refine-<sum>"). Because the child is an ordinary
// resolved-grid manifest, the journal, the coordinator, the workers
// and the results store execute it unchanged, and manifest.MergeRefined
// renders both passes as one monotone load axis. Refinement is
// deterministic: identical coarse results yield a byte-identical child
// manifest (golden-tested), so resumed runs reuse its journal.
//
// The budget is part of the plan (Manifest.RefineBudget, in the plan's
// fingerprint), so cmd/nocsimd takes -adaptive -refine-budget too and
// derives the child itself: the post that completes a coarse pass
// registers its refinement before the pass reads complete, and a
// coordinator restarted with -resume derives the same child from its
// journal. No client has to stay attached; one that does runs the
// coarse pass as a scoped worker, fetches the child by name (404: none
// was worth running), runs it and merges, exactly as a local run. The
// acceptance test reproduces the Fig. 2 sweep inside the paper's claim
// bands from a third of the fixed grid's simulated points.
//
// # Results service
//
// Beyond per-run journals, package nocsim/results is a persistent
// single-file results store built on the same crash-safe journal codec:
// one writing process (the coordinator with -results, or a resultsd
// -import backfill) appends plans and points durably, any number of
// read-only followers replay the file incrementally. cmd/resultsd
// (internal/resultsrv) serves it over HTTP: stored plans, point queries
// filtered by figure/policy/pattern/mesh/load, table rendering through
// the same internal/sweep renderer cmd/figures uses (byte-identical
// output), and a live dashboard proxying the coordinator's /metrics.
// Renders are memoized keyed by the manifest plan fingerprint
// (manifest.Sum) — identical plans share one render, any changed
// planning knob misses — and -export writes a plan's journal lines back
// out byte-identically. resultsd -compact rewrites the store in place,
// dropping plans superseded by a newer same-name plan (re-planned or
// re-refined figures) and duplicate point lines; every query answers
// identically before and after. The daemons shut down gracefully on
// SIGINT/SIGTERM: quiesce leases, drain in-flight posts, flush and
// fsync journals and store.
//
// Entry points: cmd/nocsim (single run or JSON scenario), cmd/figures
// (regenerate the evaluation), cmd/capacity (saturation analysis),
// cmd/report (paper-vs-measured report), cmd/nocsimd (work-queue
// coordinator and worker), cmd/resultsd (results store, query API and
// dashboard), and examples/ — all thin translations over the nocsim
// package.
//
// # Benchmarks
//
// The benchmark of record is `bash bench/run.sh` (BENCHMARK.json,
// bench/README.md): five digest-checked workloads on which every
// performance claim is made. Beside it, micro-benchmarks
// (bench_*_test.go in internal/noc, internal/traffic and internal/sim)
// time one layer while working on it — router pipeline stages,
// ring-buffer primitives, injector draws, engine loop.
// Steady-state Network.Step is allocation-free, asserted by
// testing.AllocsPerRun in internal/noc.
package repro
