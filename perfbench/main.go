// Command perfbench measures what it costs the host to run the simulator:
// host time, allocations and heap per workload, and with --trace 1 where
// that cost goes, layer by layer. Run it from the repository root through
// its build script:
//
//	bash perfbench/run.sh --workload conv-churn --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory lists
// the workloads, the metrics, and which end-to-end metric each layer metric
// should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// setup generates the inputs from the seed and builds the stacks at
	// steady state. tr registers span names; it is nil for untraced runs.
	setup func(seed int64, small bool, tr *tracer) (bench, error)
	// setups is how many times an untraced run sets up the workload;
	// setup_s is the median, and the last instance is measured.
	setups int
	// tracedRounds is the fixed number of rounds a traced run records, so
	// its counts repeat exactly for a seed. About a second of work each.
	tracedRounds int
}

var workloads = []workload{
	{name: "conv-churn", setup: newConvChurn, setups: 5, tracedRounds: 8},
	{name: "zns-churn", setup: newZonedChurn, setups: 5, tracedRounds: 24},
	{name: "kv-mixed", setup: newKVMixed, setups: 5, tracedRounds: 16},
	{name: "report", setup: newReport, setups: 3, tracedRounds: 1},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: conv-churn, zns-churn, kv-mixed or report")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in wall-clock seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	small := fs.Bool("small", false, "small inputs (smoke runs; no pinned digest)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or trace %d\n", *name, *trace)
		return 2
	}
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.name, *seed, *seconds, *trace)
	var res result
	var err error
	if *trace == 0 {
		res, err = endToEnd(w, *seed, *small, *seconds, stdout)
	} else {
		res, err = traced(w, *seed, *small, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// checkDigest reports the output digest and counts a mismatch against the
// pinned value as one failed operation.
func checkDigest(w *workload, b bench, seed int64, small bool, out io.Writer) int {
	d := b.digest()
	if d == "" {
		return 0
	}
	want, pinned := pinnedDigests[w.name]
	if !pinned || small || seed != defaultSeed {
		fmt.Fprintf(out, "digest: %s (not pinned for this seed)\n", d)
		return 0
	}
	if d != want {
		fmt.Fprintf(out, "digest: %s MISMATCH, pinned %s\n", d, want)
		return 1
	}
	fmt.Fprintf(out, "digest: %s ok\n", d)
	return 0
}

// endToEnd is the untraced run: it sets the workload up w.setups times,
// then measures rounds for the given seconds.
func endToEnd(w *workload, seed int64, small bool, seconds float64, out io.Writer) (result, error) {
	var setups []float64
	var b bench
	for i := 0; i < w.setups; i++ {
		b = nil
		runtime.GC()
		c0 := cpuSeconds()
		var err error
		if b, err = w.setup(seed, small, nil); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, cpuSeconds()-c0)
	}
	b.markLayers()
	p := runPhase(b, nil, seconds, digestRounds, 0)
	failed := p.failed + checkDigest(w, b, seed, small, out)
	for _, l := range b.accuracy() {
		fmt.Fprintln(out, l)
	}
	fmt.Fprintf(out, "rounds: %d, setups: %v\n", len(p.secs), setups)
	return result{
		Correct:   failed == 0,
		Attempted: max(p.attempted, 1),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":      {median(setups), "s"},
			"run_s":        {median(p.secs), "s"},
			"sim_io_per_s": {median(p.rates), "1/s"},
			"mallocs":      {median(p.mallocs), "count"},
			"alloc_mb":     {median(p.bytes) / 1e6, "MB"},
			"peak_heap_mb": {nearestRank(sorted(p.heapGoals), 0.95) / 1e6, "MB"},
		},
	}, nil
}

// traced is the traced run: a fixed number of rounds with spans around
// every call into a layer, then an untraced phase of the given seconds
// under a CPU profile. The per-layer metrics come from the first phase;
// the CPU shares and Go runtime figures from the second, so span
// timestamps do not distort them.
func traced(w *workload, seed int64, small bool, seconds float64, out io.Writer) (result, error) {
	tr := newTracer()
	b, err := w.setup(seed, small, tr)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	b.markLayers()
	tp := runPhase(b, tr, 0, w.tracedRounds, w.tracedRounds)
	failed := tp.failed + checkDigest(w, b, seed, small, out)
	layers := b.layers(tr, len(tp.secs))
	for _, l := range b.accuracy() {
		fmt.Fprintln(out, l)
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	// At least a second, so even a smoke run gets ~100 profile samples.
	up := runPhase(b, nil, max(seconds, 1), 1, 0)
	pprof.StopCPUProfile()
	failed += up.failed
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	for m, s := range shares {
		layers["cpu."+m] = s
	}
	layers["go.gc_cycles"] = float64(up.gcCycles) / float64(len(up.secs))
	if up.usedCPU > 0 {
		layers["go.gc_cpu_frac"] = up.gcCPU / up.usedCPU
	}
	layers["trace.overhead_frac"] = median(tp.secs)/median(up.secs) - 1
	layers["run.wall_s"] = median(up.wall)
	fmt.Fprintf(out, "traced rounds: %d, untraced rounds: %d, span self-time sum == root time: %v (%d ns)\n",
		len(tp.secs), len(up.secs), tr.rootNS == tr.selfSumNS, tr.rootNS)

	metrics := map[string]metric{}
	for _, d := range perLayer() {
		metrics[d.name] = metric{layers[d.name], d.unit}
	}
	if err := writeOutputs(w.name, seed, tr, prof.Bytes(), metrics); err != nil {
		fmt.Fprintf(out, "warning: %v\n", err)
	}
	return result{
		Correct:   failed == 0,
		Attempted: max(tp.attempted+up.attempted, 1),
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// writeOutputs keeps the traced run's spans, CPU profile and metrics, with
// the host facts, under the build directory.
func writeOutputs(name string, seed int64, tr *tracer, prof []byte, metrics map[string]metric) error {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "perfbench-out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := tr.writeSpans(base + "-spans.jsonl"); err != nil {
		return err
	}
	if err := os.WriteFile(base+"-cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(struct {
		Host    map[string]any    `json:"host"`
		Metrics map[string]metric `json:"metrics"`
	}{map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version()}, metrics}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-layers.json", doc, 0o644)
}
