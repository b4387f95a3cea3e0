// Command znsbench runs the paper-reproduction experiments (E1-E12 and the
// ablations) and prints their report tables.
//
// Usage:
//
//	znsbench                 # run everything, full size
//	znsbench -quick          # smaller sweeps, seconds instead of minutes
//	znsbench -run E2,E5      # selected experiments
//	znsbench -list           # list experiments and their paper claims
//	znsbench -seed 7         # change the workload seed
//	znsbench -shards 4       # run independent parts on 4 workers; same report
//
// Telemetry (see docs/observability.md):
//
//	znsbench -run E2,E8 -trace-out out.json -metrics-out metrics.json
//	znsbench -run E2 -metrics-out m.json -sample-every 5ms
//	znsbench -run E4 -serve :8077        # live dashboard + JSON endpoints
//	znsbench -run E4,E6 -bench-json BENCH.json
//	znsbench -slo -run E14 -bench-json BENCH_slo.json  # per-tenant SLO run
//	znsbench -run E4 -whatif nand_program:0.5  # counterfactual ground truth
//	znsbench -explain E6:512          # per-IO forensic replay (tick-by-tick)
//	znsbench -cpuprofile cpu.pprof    # profile the simulator itself
//
// -trace-out writes Chrome trace-event JSON (open in chrome://tracing or
// https://ui.perfetto.dev) with one track per flash channel, LUN, and zone;
// -metrics-out writes counters, gauges, histograms, and the virtual-time
// series sampled every -sample-every of virtual time.
//
// -serve starts an HTTP server with /metrics.json, /attribution.json, an
// SSE /events stream, and a live dashboard at /; it publishes while the
// experiments run and keeps serving the final snapshots until interrupted.
// -bench-json writes the machine-readable results (throughput, latency
// percentiles, per-phase attribution) suitable for committing as
// BENCH_*.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"blockhead/internal/core"
	"blockhead/internal/fault"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/httpserve"
)

func main() {
	var (
		runIDs      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick       = flag.Bool("quick", false, "shrink sweeps and run lengths")
		list        = flag.Bool("list", false, "list experiments and exit")
		seed        = flag.Int64("seed", 42, "workload seed")
		metricsOut  = flag.String("metrics-out", "", "write metrics JSON (counters, gauges, time series) to this file")
		traceOut    = flag.String("trace-out", "", "write Chrome trace-event JSON to this file")
		traceText   = flag.String("trace-text", "", "write a plain-text event dump to this file")
		sampleEvery = flag.Duration("sample-every", 10*time.Millisecond, "virtual-time interval between time-series samples")
		traceCap    = flag.Int("trace-events", telemetry.DefaultTraceEvents, "trace ring capacity (older events are dropped)")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator to this file")
		serve       = flag.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :8077)")
		benchJSON   = flag.String("bench-json", "", "write machine-readable benchmark results (BENCH_*.json schema) to this file")
		faults      = flag.String("faults", "", "fault profile for the fault-campaign experiment (E13); implies running E13")
		slo         = flag.Bool("slo", false, "run the per-tenant SLO experiment (E14); implies adding E14 to -run")
		whatif      = flag.String("whatif", "", "run under counterfactual phase scalings, e.g. nand_program:0.5 or zone_reset:0,wp_serial:0 — the ground truth the what-if engine predicts")
		explain     = flag.String("explain", "", "replay one measured IO with tick-by-tick forensics, e.g. E6:512 (experiment:sequence from a 'slowest IOs' report section); prints the annotated narrative and exits")
		shards      = flag.Int("shards", 1, "workers running each experiment's independent parts (reports and -bench-json are byte-identical at any count, see docs/parallel-sim.md); probe/explain runs use one")
	)
	flag.Parse()

	if err := core.CheckRegistry(); err != nil {
		fmt.Fprintln(os.Stderr, "znsbench:", err)
		os.Exit(1)
	}

	if *list {
		for _, e := range core.All() {
			fmt.Printf("%-4s %s\n     paper: %s\n", e.ID, e.Title, e.PaperClaim)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "znsbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "znsbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "znsbench: -shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	cfg := core.Config{Quick: *quick, Seed: *seed, FaultProfile: *faults, Shards: *shards}
	if *whatif != "" {
		sc, err := critpath.ParseScenario(*whatif)
		if err != nil {
			fmt.Fprintln(os.Stderr, "znsbench:", err)
			os.Exit(2)
		}
		cfg.Scenario = &sc
		fmt.Fprintf(os.Stderr, "znsbench: counterfactual run under %s\n", sc.Name)
	}
	if *faults != "" {
		if _, ok := fault.ProfileByName(*faults); !ok {
			fmt.Fprintf(os.Stderr, "znsbench: unknown fault profile %q (valid: %s)\n",
				*faults, strings.Join(fault.ProfileNames(), ", "))
			os.Exit(2)
		}
	}
	if *explain != "" {
		id, seq, err := parseExplain(*explain)
		if err != nil {
			fmt.Fprintln(os.Stderr, "znsbench:", err)
			os.Exit(2)
		}
		transcript, err := core.Explain(cfg, id, seq)
		if err != nil {
			fmt.Fprintln(os.Stderr, "znsbench:", err)
			os.Exit(1)
		}
		fmt.Print(transcript)
		return
	}
	if *metricsOut != "" || *traceOut != "" || *traceText != "" || *serve != "" {
		cfg.Probe = telemetry.NewProbe(telemetry.Options{
			SampleEvery: sim.Time((*sampleEvery).Nanoseconds()),
			TraceEvents: *traceCap,
		})
	}
	var server *httpserve.Server
	if *serve != "" {
		var err error
		server, err = httpserve.New(cfg.Probe, httpserve.Options{Addr: *serve})
		if err != nil {
			fmt.Fprintln(os.Stderr, "znsbench:", err)
			os.Exit(1)
		}
		cfg.Probe.Pub = server
		fmt.Fprintf(os.Stderr, "znsbench: serving live telemetry at %s/\n", server.URL())
	}

	var selected []core.Experiment
	if *runIDs == "" {
		selected = core.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := core.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "znsbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
		if *faults != "" {
			// -faults exists to drive the fault campaign: make sure it runs
			// even when the -run list predates E13.
			hasE13 := false
			for _, e := range selected {
				hasE13 = hasE13 || e.ID == "E13"
			}
			if !hasE13 {
				e, _ := core.ByID("E13")
				selected = append(selected, e)
			}
		}
		if *slo {
			// -slo drives the per-tenant SLO experiment the same way.
			hasE14 := false
			for _, e := range selected {
				hasE14 = hasE14 || e.ID == "E14"
			}
			if !hasE14 {
				e, _ := core.ByID("E14")
				selected = append(selected, e)
			}
		}
	}
	var bench []core.BenchEntry
	for _, e := range selected {
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "znsbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(rep.Format())
		bench = append(bench, rep.Bench...)
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, cfg, bench); err != nil {
			fmt.Fprintf(os.Stderr, "znsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "znsbench: wrote %d benchmark entries to %s\n", len(bench), *benchJSON)
	}
	if cfg.Probe != nil {
		if err := exportTelemetry(cfg.Probe, *metricsOut, *traceOut, *traceText); err != nil {
			fmt.Fprintf(os.Stderr, "znsbench: %v\n", err)
			os.Exit(1)
		}
	}
	if server != nil {
		// Publish the end-of-run snapshots, then keep serving them so the
		// endpoints stay curl-able until the user is done.
		server.Publish(lastSampleTime(cfg.Probe.Metrics))
		fmt.Fprintf(os.Stderr, "znsbench: runs complete; still serving at %s/ (Ctrl-C to exit)\n", server.URL())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		server.Close()
	}
}

// parseExplain splits an -explain target "E6:512" into its experiment ID
// and measured-IO sequence number.
func parseExplain(spec string) (string, uint64, error) {
	id, seqStr, ok := strings.Cut(spec, ":")
	if !ok || id == "" || seqStr == "" {
		return "", 0, fmt.Errorf("explain: want <experiment>:<seq> (e.g. E6:512), got %q", spec)
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("explain: bad sequence number %q: %v", seqStr, err)
	}
	return id, seq, nil
}

// benchFile is the -bench-json schema, committed as BENCH_*.json to track
// the performance trajectory across PRs.
type benchFile struct {
	Schema  string            `json:"schema"`
	Seed    int64             `json:"seed"`
	Quick   bool              `json:"quick"`
	Entries []core.BenchEntry `json:"entries"`
}

func writeBenchJSON(path string, cfg core.Config, entries []core.BenchEntry) error {
	if entries == nil {
		entries = []core.BenchEntry{}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(benchFile{
		Schema: "blockhead/bench/v1", Seed: cfg.Seed, Quick: cfg.Quick, Entries: entries,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// exportTelemetry writes the requested telemetry outputs after the runs.
func exportTelemetry(p *telemetry.Probe, metricsOut, traceOut, traceText string) error {
	writeTo := func(path string, write func(w io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if metricsOut != "" {
		// Dump at the last sampled instant so final gauge polls line up with
		// the end of the sampled series.
		at := lastSampleTime(p.Metrics)
		if err := writeTo(metricsOut, func(w io.Writer) error {
			return p.Metrics.WriteJSON(w, at)
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "znsbench: wrote metrics to %s\n", metricsOut)
	}
	if traceOut != "" {
		if err := writeTo(traceOut, p.Trace.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "znsbench: wrote %d trace events to %s (%d dropped)\n",
			p.Trace.Len(), traceOut, p.Trace.Dropped())
	}
	if traceText != "" {
		if err := writeTo(traceText, p.Trace.WriteText); err != nil {
			return err
		}
	}
	return nil
}

// lastSampleTime finds the latest sampled timestamp, or 0.
func lastSampleTime(r *telemetry.Registry) sim.Time {
	var last sim.Time
	for _, s := range r.SeriesSnapshot() {
		if n := len(s.Points); n > 0 && s.Points[n-1].At > last {
			last = s.Points[n-1].At
		}
	}
	return last
}
