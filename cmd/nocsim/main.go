// Command nocsim runs a single NoC simulation at one operating point and
// prints the measured latency, delay, throughput, frequency and power.
// It is a thin flag-to-Scenario translation over the public nocsim
// package: every flag sets one Scenario field, and -scenario decodes the
// same struct from the JSON wire form it marshals to. Either way the
// scenario is normalized and validated once, then run.
//
// Examples:
//
//	nocsim -pattern uniform -rate 0.2 -policy nodvfs
//	nocsim -pattern tornado -rate 0.15 -policy rmsd -lambda-max 0.3
//	nocsim -pattern uniform -rate 0.2 -policy dmsd -target 150
//	nocsim -app h264 -speed 0.8 -policy dmsd -target 120
//	nocsim -scenario job.json
//	nocsim -pattern uniform -rate 0.2 -dump-scenario   # print the wire form
//
// Beyond-paper workloads (see the README's scenario cookbook):
//
//	nocsim -pattern uniform -rate 0.2 -capture-trace t.json   # record
//	nocsim -trace t.json                                      # replay bit-identically
//	nocsim -pattern uniform -rate 0.2 -source mmpp -burst-ratio 6
//	nocsim -pattern uniform -rate 0.2 -faulty-links "6>7,7>6"
//	nocsim -pattern uniform -rate 0.2 -islands "0,0,2,4@0.5"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/nocsim"
)

// dumpLogs writes the requested per-packet and per-flow CSVs.
func dumpLogs(plog *nocsim.PacketLog, packetPath, flowPath string) error {
	write := func(path string, fn func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(packetPath, func(f *os.File) error { return plog.WriteCSV(f) }); err != nil {
		return err
	}
	if err := write(flowPath, func(f *os.File) error { return plog.WriteFlowsCSV(f) }); err != nil {
		return err
	}
	if plog.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "packet log full: %d packets dropped\n", plog.Dropped())
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocsim: ")

	mesh := cli.NewMeshFlags(flag.CommandLine)
	var (
		pattern = flag.String("pattern", "uniform", "synthetic pattern (uniform, tornado, bitcomp, transpose, neighbor, bitrev, shuffle)")
		rate    = flag.Float64("rate", 0.2, "injection rate, flits per node per node cycle")
		appName = flag.String("app", "", "multimedia app instead of a pattern: h264 or vce")
		speed   = flag.Float64("speed", 1.0, "app speed, 1.0 = 75 frames/s")

		policy    = flag.String("policy", "nodvfs", "DVFS policy: nodvfs, rmsd, dmsd")
		lambdaMax = flag.Float64("lambda-max", 0, "RMSD target network rate (0 = auto-calibrate)")
		target    = flag.Float64("target", 0, "DMSD target delay in ns (0 = auto-calibrate)")

		traceRef     = flag.String("trace", "", "replay a recorded injection-trace JSON file instead of a pattern or app")
		captureTrace = flag.String("capture-trace", "", "record this run's injections into a trace file (replay with -trace)")
		source       = flag.String("source", "", "bursty arrival process under the pattern: mmpp or pareto")
		burstRatio   = flag.Float64("burst-ratio", 0, "ON rate over mean rate for -source (0 = default 4)")
		burstLen     = flag.Float64("burst-len", 0, "mean ON sojourn in node cycles for -source (0 = default 64)")
		paretoAlpha  = flag.Float64("pareto-alpha", 0, "sojourn tail index for -source pareto (0 = default 1.5)")
		faultyLinks  = flag.String("faulty-links", "", `comma-separated directed channels to mask, each "from>to"`)
		islands      = flag.String("islands", "", `V/F islands as "x0,y0,x1,y1@speed" items separated by ';'`)

		scenarioPath = flag.String("scenario", "", "run a JSON scenario file instead of building one from flags")
		dumpScenario = flag.Bool("dump-scenario", false, "print the scenario's JSON wire form and exit without running")

		packetLog = flag.String("packet-log", "", "write per-packet lifecycle CSV to this file")
		flowLog   = flag.String("flow-log", "", "write per-flow aggregate CSV to this file")
	)
	flag.Parse()

	ctx, stop := cli.SignalContext()
	defer stop()

	var s nocsim.Scenario
	if *scenarioPath != "" {
		// The file is the whole scenario; warn about shaping flags that
		// would otherwise be silently ignored.
		shaping := map[string]bool{
			"width": true, "height": true, "vcs": true, "buffers": true,
			"packet": true, "routing": true, "pattern": true, "rate": true,
			"app": true, "speed": true, "policy": true, "lambda-max": true,
			"target": true, "seed": true, "quick": true, "trace": true,
			"source": true, "burst-ratio": true, "burst-len": true,
			"pareto-alpha": true, "faulty-links": true, "islands": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if shaping[f.Name] {
				fmt.Fprintf(os.Stderr, "nocsim: -%s is ignored when -scenario is given\n", f.Name)
			}
		})
		data, err := os.ReadFile(*scenarioPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := json.Unmarshal(data, &s); err != nil {
			log.Fatalf("parsing %s: %v", *scenarioPath, err)
		}
	} else {
		// An app brings its mesh, so "-app h264" runs on the graph's 4x4
		// mapping unless a dimension flag says otherwise.
		var err error
		if s, err = mesh.Scenario(*appName != "", "rate", "speed"); err != nil {
			log.Fatal(err)
		}
		s.Policy = nocsim.PolicyKind(*policy)
		switch {
		case *traceRef != "":
			s.TraceRef = *traceRef
		case *appName != "":
			s.App, s.Load = *appName, *speed
		default:
			s.Pattern, s.Load = *pattern, *rate
		}
		switch *source {
		case "":
		case nocsim.SourceMMPP, nocsim.SourcePareto:
			s.Source = &nocsim.SourceSpec{Kind: *source, BurstRatio: *burstRatio, BurstLen: *burstLen}
			if *source == nocsim.SourcePareto {
				s.Source.ParetoAlpha = *paretoAlpha
			}
		default:
			log.Fatalf("unknown -source %q (want mmpp or pareto)", *source)
		}
		if *faultyLinks != "" {
			s.FaultyLinks = strings.Split(*faultyLinks, ",")
			for i := range s.FaultyLinks {
				s.FaultyLinks[i] = strings.TrimSpace(s.FaultyLinks[i])
			}
		}
		if *islands != "" {
			if s.Islands, err = parseIslands(*islands); err != nil {
				log.Fatal(err)
			}
		}
		if *lambdaMax > 0 || *target > 0 {
			// Partial manual calibration: fill what the user gave, guess
			// the rest conservatively. Validation rejects a policy whose
			// own operating point is missing.
			s.Calibration = &nocsim.Calibration{
				SaturationRate: *lambdaMax / 0.9,
				LambdaMax:      *lambdaMax,
				TargetDelayNs:  *target,
			}
		}
	}
	// Partial scenarios are legal: fill the documented defaults before
	// validating, exactly as Run would.
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		log.Fatal(err)
	}

	var plog *nocsim.PacketLog
	if *packetLog != "" || *flowLog != "" {
		plog = nocsim.NewPacketLog(0)
		s.PacketLog = plog
	}
	var sink *nocsim.Trace
	if *captureTrace != "" {
		sink = nocsim.NewTrace()
		s.TraceCapture = sink
	}

	if *dumpScenario {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
		return
	}

	res, err := nocsim.Run(ctx, s)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scenario:    %s\n", describe(res.Scenario))
	fmt.Printf("policy:      %s\n", res.Scenario.Policy)
	fmt.Printf("latency:     %.1f network cycles\n", res.AvgLatencyCycles)
	fmt.Printf("delay:       %.1f ns (p99 %.0f ns)\n", res.AvgDelayNs, res.P99DelayNs)
	fmt.Printf("throughput:  %.4f flits/node/cycle (offered %.4f)\n", res.Throughput, res.OfferedRate)
	fmt.Printf("frequency:   %.1f MHz (avg), voltage %.3f V\n", res.AvgFreqHz/1e6, res.AvgVolts)
	fmt.Printf("power:       %.1f mW\n", res.AvgPowerMW)
	// How the run used the host goes in the wall field, which the
	// metrics do not depend on: a run that borrowed a spare core says how
	// many cycles it stepped split.
	wall := res.Meta.WallTime.Round(time.Millisecond).String()
	if u := nocsim.FabricStats(); u.ShardedCycles > 0 {
		wall += fmt.Sprintf(", %d cycles stepped sharded", u.ShardedCycles)
	}
	fmt.Printf("packets:     %d measured over %.1f µs (wall %s)\n",
		res.Packets, res.ElapsedNs/1e3, wall)
	if plog != nil {
		if err := dumpLogs(plog, *packetLog, *flowLog); err != nil {
			log.Fatal(err)
		}
	}
	if sink != nil {
		if err := sink.Save(*captureTrace); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace:       %d injections over %d cycles -> %s\n",
			sink.Len(), sink.Cycles(), *captureTrace)
	}
	if res.Saturated {
		fmt.Println("WARNING:     network saturated at this load")
		os.Exit(2)
	}
}

func describe(s nocsim.Scenario) string {
	traffic := s.Pattern
	loadLabel := fmt.Sprintf("rate %.3f", s.Load)
	switch {
	case s.TraceRef != "":
		traffic = "trace " + s.TraceRef
		loadLabel = "recorded load"
	case s.App != "":
		traffic = s.App
		loadLabel = fmt.Sprintf("speed %.2f", s.Load)
	}
	if s.Source != nil {
		traffic += "+" + s.Source.Kind
	}
	var extra string
	if n := len(s.FaultyLinks); n > 0 {
		extra += fmt.Sprintf(", %d faulty links", n)
	}
	if n := len(s.Islands); n > 0 {
		extra += fmt.Sprintf(", %d islands", n)
	}
	return fmt.Sprintf("%dx%d mesh, %d VCs, %d buf/VC, %d-flit packets, %s routing, %s traffic, %s%s",
		s.Mesh.Width, s.Mesh.Height, s.Mesh.VCs, s.Mesh.BufDepth, s.Mesh.PacketSize,
		s.Mesh.Routing, traffic, loadLabel, extra)
}

// parseIslands parses the -islands flag: "x0,y0,x1,y1@speed" items
// separated by semicolons, e.g. "0,0,2,4@0.5;3,0,4,4@0.75".
func parseIslands(spec string) ([]nocsim.Island, error) {
	var out []nocsim.Island
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		var isl nocsim.Island
		if _, err := fmt.Sscanf(item, "%d,%d,%d,%d@%f",
			&isl.X0, &isl.Y0, &isl.X1, &isl.Y1, &isl.Speed); err != nil {
			return nil, fmt.Errorf(`island %q: want "x0,y0,x1,y1@speed"`, item)
		}
		out = append(out, isl)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("island spec %q holds no islands", spec)
	}
	return out, nil
}
