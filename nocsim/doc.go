// Package nocsim is the public face of the repro module: a cycle-accurate
// mesh NoC simulator with a global DVFS domain, reproducing Casu &
// Giaccone, "Rate-based vs Delay-based Control for DVFS in NoC" (DATE
// 2015).
//
// The API is three ideas:
//
//   - A Scenario is one self-contained simulation job — fabric, traffic,
//     load, policy, seed — written as a struct literal whose zero fields
//     take the paper's baseline, normalized and validated once where it
//     enters Run, Sweep or Calibrate, and JSON-round-trippable, so it
//     doubles as a wire format.
//   - Run executes one scenario under a context.Context that is observed
//     all the way inside the engine loop, so runs can be cancelled
//     promptly.
//   - A Grid crosses a base scenario with loads × policies; Sweep fans
//     its points across a worker pool, and Grid.Point(i) yields the
//     self-contained scenario of any single point — the unit of work for
//     distributing sweeps across machines.
//
// # Quickstart
//
//	s := nocsim.Scenario{
//		Pattern: "uniform",
//		Load:    0.2,
//		Policy:  nocsim.DMSD,
//		Quick:   true,
//	}
//	res, err := nocsim.Run(ctx, s)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("delay %.1f ns at %.1f mW\n", res.AvgDelayNs, res.AvgPowerMW)
//
// Sweeping the three policies over a load grid:
//
//	results, err := nocsim.Sweep(ctx, nocsim.Grid{
//		Base:     s,
//		Loads:    []float64{0.05, 0.1, 0.15, 0.2},
//		Policies: nocsim.AllPolicies(),
//	})
//
// # Determinism
//
// Every run is a pure function of its Scenario: the same scenario —
// including one recovered from JSON — reproduces the same Metrics bit
// for bit, for any Workers setting. Sweep derives one independent RNG
// stream per grid point from the base seed (a SplitMix64 finalizer), so
// replication and variance analysis across points see uncorrelated
// samples.
//
// Each simulation holds one slot of the process-wide leaf budget while it
// runs, so sweep-level Workers is the only concurrency there is to size.
// A simulation steps on one goroutine, except that a saturated run on a
// mesh of more than 32 routers borrows a slot nobody else wants, when
// there is one, and steps half its rows on a second goroutine; it hands
// the slot back within one network cycle of another simulation asking for
// one. The split never changes a result.
//
// # Calibration
//
// The RMSD and DMSD controllers need operating points (λmax, the delay
// setpoint). Run and Sweep derive them automatically with the paper's
// recipe when no Calibration is attached, and record the resolved values
// in their results; pin them in Scenario.Calibration to skip the search —
// in particular before shipping Grid points to remote workers.
//
// The recipe is this package's own, below the door where a scenario is
// normalized and validated: the saturation rate is searched with
// No-DVFS probes at full speed, λmax is 0.9 × that rate, and DMSD's
// target is the full-speed delay at λmax. Every run, probe and
// calibration builds its engine parameters straight from the Scenario.
//
// A calibration is a pure function of the scenario, and the process
// computes each distinct one once: Calibrate, FindSaturation,
// Grid.Resolve and Run's auto-calibration share a memo, concurrent
// callers of one key wait for a single search, and only successes are
// kept (CalibrationStats counts the reuse). What identifies a calibration
// is defined once per stage, by the scenario the stage runs and hashes
// (referenceStage and searchStage in calibrate.go): the whole normalized
// scenario minus Load, Policy, Calibration and Workers for the reference
// run, and minus ControlPeriod and Transient as well for the saturation
// search, so a controller study reuses its fabric's search and runs only
// its own reference point. Scenarios with a packet log or trace sink
// attached always run their calibration, since it writes into them.
//
// # Set-up
//
// A sweep runs hundreds of points on one mesh, so the two large objects
// of a run are kept between runs instead of rebuilt: the network (the
// routers' flat buffer, credit and link arrays) and the injector's slab
// of per-node random generators. A finished run hands its network to a
// process-wide free list keyed by the mesh configuration and the set of
// faulty links; the next run on that fabric takes it and resets it to
// exactly the state a constructor leaves — on taking it, so whatever a
// cancelled or aborted run left inside is gone first — and a run that
// panicked hands nothing back. The generator slab travels the same way,
// keyed by node count, and every generator in it is reseeded in full
// before its first draw. Neither object carries anything from one run
// into the next, so reuse cannot change a result; islands, sources,
// policies and seeds are per-run and never part of a pooled object.
//
// Ownership is exclusive: a pooled object belongs to the free list, an
// acquired one to the run that acquired it, and nothing outside that run
// may touch it. The lists are bounded — at most 16 objects under each of
// the 8 most recently used keys, nothing for a key the last 32 runs did
// not use, and nothing above about 2 MB a network or 5 MB a slab — and
// FabricStats counts builds, reuses and evictions, and the runs that
// borrowed a second core (see Determinism) with the cycles they stepped
// on it.
//
// # Beyond-paper workloads
//
// Three scenario families extend the paper's Poisson-only evaluation
// (the README's scenario cookbook walks through each with runnable
// commands):
//
//   - Trace replay: a Trace sink in TraceCapture records every injection
//     of a run; Trace.Save writes it as JSON, and a scenario naming the
//     file in TraceRef replays it bit-identically — replay consumes no
//     randomness, so the network evolution reproduces the capture run
//     exactly.
//   - Bursty sources: a SourceSpec of kind SourceMMPP or SourcePareto
//     layers an on-off modulation under any synthetic pattern. The
//     long-run mean rate stays exactly the scenario's Load; burstiness
//     only redistributes the same traffic in time.
//   - Heterogeneous meshes: non-square dimensions (Mesh takes any
//     width × height ≥ 2), masked faulty channels routed around by a
//     fault-aware minimal table (FaultyLinks), and rectangular V/F
//     islands running at a fraction of the network clock (Islands).
//
// # JSON wire form
//
// Scenario marshals losslessly to JSON; a partial hand-written document
// is completed by Normalized and checked by Validate (Run, Sweep and the
// CLIs do both). The reference below lists every wire field with its
// default, its validation rule, and the cmd/nocsim flag that sets it
// ("—" when only the API or a JSON file can).
//
// Four public types are aliases of the engine types that compute them,
// and their fields, defaults and JSON tags are declared there: Metrics
// and TraceSample are sim.Metrics and sim.Sample (internal/sim), Island
// is noc.Island (internal/noc) and SourceSpec is traffic.SourceConfig
// (internal/traffic). A new metric is added once, to sim.Metrics.
//
// Fabric (object "mesh"):
//
//	mesh.width, mesh.height   int     default 5x5 as a pair (an app scenario
//	                                  defaults to the mesh its graph is mapped
//	                                  on). Naming only one of the two is
//	                                  rejected; both must be ≥ 2. Any
//	                                  rectangle is legal — meshes need not be
//	                                  square. Flags -width, -height
//	                                  (beside -app, only when given).
//	mesh.vcs                  int     virtual channels per input port;
//	                                  default 8, 1 to 12. Flag -vcs.
//	mesh.buf_depth            int     flit slots per VC buffer; default 4,
//	                                  must be ≥ 1. Flag -buffers.
//	mesh.packet_size          int     packet length in flits; default 20,
//	                                  must be ≥ 1. Flag -packet.
//	mesh.routing              string  "xy" (default), "yx" or "o1turn".
//	                                  Flag -routing.
//
// Traffic — exactly one of pattern, app and trace:
//
//	pattern       string   synthetic pattern: "uniform" (default when app
//	                       and trace are empty), "tornado", "bitcomp",
//	                       "transpose", "neighbor", "bitrev", "shuffle".
//	                       Some patterns constrain the mesh (e.g.
//	                       "transpose" needs width == height); the pattern
//	                       constructor's error is reported by Validate.
//	                       Flag -pattern.
//	app           string   multimedia workload "h264" or "vce"; the mesh
//	                       must match the app's mapping (4x4 for h264,
//	                       5x5 for vce). Flag -app.
//	peak_rate     float    busiest-node injection rate at app speed 1.0;
//	                       default 0.40, must be ≥ 0. Flag —.
//	trace         string   path of a recorded injection trace to replay
//	                       (captured through TraceCapture / the
//	                       -capture-trace flag and saved with Trace.Save).
//	                       Excludes pattern, app and source; RMSD/DMSD
//	                       trace scenarios must pin a calibration (the
//	                       saturation search varies load, which a fixed
//	                       trace ignores). The file is read at Run time,
//	                       not at validation. Flag -trace.
//	source        object   bursty generation process layered under the
//	                       pattern (patterns only — not apps or traces):
//	                       source.kind          "mmpp" or "pareto" (required)
//	                       source.burst_ratio   ON-rate multiplier β > 1,
//	                                            default 4
//	                       source.burst_len     mean ON sojourn in node
//	                                            cycles ≥ 1, default 64
//	                       source.pareto_alpha  sojourn tail index in (1, 2],
//	                                            default 1.5 (pareto only)
//	                       The ON rate β × load must stay below one packet
//	                       per node cycle, checked when the injector is
//	                       built. Flags -source, -burst-ratio, -burst-len,
//	                       -pareto-alpha.
//
// Heterogeneity:
//
//	faulty_links  []string directed channels masked out of the fabric,
//	                       each "from>to" with from/to the node ids of
//	                       adjacent routers (mask both directions for a
//	                       fully dead wire). Routing around faults needs a
//	                       deterministic table, so "o1turn" is rejected; a
//	                       fault set that disconnects the mesh fails at
//	                       Run time. Flag -faulty-links (comma-separated).
//	islands       []object rectangular V/F islands, later entries winning
//	                       on overlap:
//	                       x0, y0, x1, y1  inclusive corners, inside the
//	                                       mesh with x0 ≤ x1, y0 ≤ y1
//	                       speed           clock fraction in (0, 1]
//	                       Flag -islands ("x0,y0,x1,y1@speed;...").
//
// Operating point:
//
//	load          float    injection rate in flits/node/node-cycle for
//	                       patterns, relative speed (1.0 ≡ 75 frames/s)
//	                       for apps; default 0.2, must be > 0. Ignored by
//	                       trace replay (the trace fixes the load).
//	                       Flags -rate, -speed.
//	policy        string   "nodvfs" (default), "rmsd" or "dmsd".
//	                       Flag -policy.
//	calibration   object   pinned policy operating points; omitted → Run
//	                       calibrates automatically and records the result:
//	                       calibration.saturation_rate  measured saturation
//	                                                    in flits/node/cycle
//	                       calibration.lambda_max       RMSD target rate,
//	                                                    > 0 when policy is
//	                                                    rmsd
//	                       calibration.target_delay_ns  DMSD setpoint, > 0
//	                                                    when policy is dmsd
//	                       Flags -lambda-max, -target (partial fill).
//
// Clocks:
//
//	fnode_hz      float    node clock in Hz; default 1e9, must be > 0.
//	                       Flag —.
//	fmin_hz       float    DVFS actuation floor; default 333e6, must be
//	                       > 0. Flag —.
//	fmax_hz       float    DVFS actuation ceiling; default 1e9, must be
//	                       ≥ fmin_hz. Flag —.
//
// Controller details:
//
//	control_period int     DVFS update period in node cycles; 0 (default)
//	                       = the paper's 10 000, or the shortened Quick
//	                       period; must be ≥ 0. Flag —.
//	ki, kp         float   DMSD PI gains; 0 = the paper's published
//	                       values; must be ≥ 0. Flag —.
//	freq_levels    int     discrete frequency levels; 0 (default) =
//	                       continuous actuation, otherwise ≥ 2. Flag —.
//	transient      bool    capture the cold-start transient instead of the
//	                       steady state (per-period trace in the Result).
//	                       Flag —.
//
// Execution:
//
//	seed          int      root RNG seed; default 1. Flag -seed.
//	quick         bool     shrink warmup/measurement windows ~4x.
//	                       Flag -quick.
//	workers       int      concurrent points in Sweep/Calibrate (0 =
//	                       GOMAXPROCS, 1 = serial); must be ≥ 0; results
//	                       are identical for every value. Flag —.
//
// A step_workers key (scenario or result meta) is ignored since PR 15.
//
// The runtime attachments PacketLog and TraceCapture are Scenario fields
// tagged json:"-": deliberately not part of the wire form, they do not
// survive JSON marshalling, they force sweeps to run serially, and they
// make every calibration run afresh.
//
// The nocsim/manifest subpackage builds on Grid: a Manifest bundles
// resolved grids into one globally indexed list of points with a
// crash-safe on-disk journal — the shared job layer behind restartable
// figure runs and the distributed work-queue (internal/queue,
// cmd/nocsimd).
package nocsim
