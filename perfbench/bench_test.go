package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"blockhead/internal/sim"
)

// lastResult runs the benchmark with args and decodes its last output line.
func lastResult(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("run %v: last line is not a result: %v\n%s", args, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %v: correct=%v failed=%d attempted=%d\n%s",
			args, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload at small size, untraced and traced, and
// checks each prints exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	decl := readBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
		for trace, want := range [][]struct{ Name, Unit string }{decl.EndToEnd, decl.PerLayer} {
			res := lastResult(t, "--workload", w.Name, "--small", "--seconds", "0", "--trace", []string{"0", "1"}[trace])
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.Name, trace, d.Name, m, d.Unit)
				}
			}
			if trace == 1 {
				var sum float64
				for _, m := range cpuModules {
					sum += res.Metrics["cpu."+m].Value
				}
				if sum < 0.999 || sum > 1.001 {
					t.Errorf("%s: cpu shares sum to %v", w.Name, sum)
				}
			}
		}
	}
}

func TestPerLayerMatchesBenchmarkJSON(t *testing.T) {
	decl := readBenchmarkJSON(t)
	defs := perLayer()
	if len(defs) != len(decl.PerLayer) {
		t.Fatalf("perLayer has %d metrics, BENCHMARK.json %d", len(defs), len(decl.PerLayer))
	}
	for i, d := range defs {
		if d.name != decl.PerLayer[i].Name || d.unit != decl.PerLayer[i].Unit {
			t.Errorf("metric %d: perLayer %v, BENCHMARK.json %v", i, d, decl.PerLayer[i])
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on a synthetic span tree:
// each span's self time excludes its children, and over a properly nested
// tree the self times sum to the root's duration.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 40},
		{parent: 1, start: 15, end: 20},
		{parent: 1, start: 25, end: 35},
		{parent: 0, start: 50, end: 90},
		{parent: 4, start: 60, end: 61},
	}
	want := []int64{100 - 30 - 40, 30 - 5 - 10, 5, 10, 40 - 1, 1}
	var sum int64
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got, want[i])
		}
		sum += got
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
	// Overlapping children count once: [55,70] and [60,80] cover 25.
	over := []span{{parent: -1, start: 50, end: 90}, {parent: 0, start: 55, end: 70}, {parent: 0, start: 60, end: 80}}
	if got := selfTimes(over)[0]; got != 15 {
		t.Errorf("overlapping children: root self %d, want 15", got)
	}

	tr := newTracer()
	a, b, c := tr.id("a"), tr.id("b"), tr.id("c")
	root := tr.begin(a)
	for i := 0; i < 3; i++ {
		io := tr.beginIO(b)
		inner := tr.begin(c)
		tr.end(inner)
		tr.endFlag(io, i == 1)
	}
	tr.end(root)
	if !tr.flush() || tr.rootNS != tr.selfSumNS {
		t.Errorf("recorded tree: self times sum to %d, root %d", tr.selfSumNS, tr.rootNS)
	}
	if got := tr.stat("b"); got.calls != 3 || got.flagCalls != 1 {
		t.Errorf("span b: %+v", got)
	}
	if tr.kept[2].req != tr.kept[1].req || tr.kept[3].req == tr.kept[1].req {
		t.Errorf("request ids: nested span must share its IO's id, the next IO gets a new one: %+v", tr.kept)
	}
}

// TestDigestDeterminism: the same seed gives the same output digest,
// another seed a different one.
func TestDigestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up three workloads")
	}
	digestOf := func(w workload, seed int64) string {
		b, err := w.setup(seed, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < digestRounds; i++ {
			b.round(nil)
			if f := b.check(); f != 0 {
				t.Fatalf("%s seed %d: %d failed operations", w.name, seed, f)
			}
		}
		return b.digest()
	}
	for _, w := range workloads[:3] {
		a, again, other := digestOf(w, 1), digestOf(w, 1), digestOf(w, heldOutSeed)
		if a == "" || a != again {
			t.Errorf("%s: seed 1 digests %q and %q", w.name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and %d share digest %q", w.name, heldOutSeed, a)
		}
	}
}

func TestQuantiles(t *testing.T) {
	var s []sim.Time
	for i := 1000; i >= 1; i-- {
		s = append(s, sim.Time(i))
	}
	if got, want := quantiles(s), [5]sim.Time{500, 900, 990, 999, 1000}; got != want {
		t.Errorf("quantiles = %v, want %v", got, want)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"blockhead/internal/ftl.(*Device).pickVictim":              "ftl",
		"blockhead/internal/telemetry/critpath.(*Recorder).Charge": "telemetry",
		"blockhead/internal/sim/shard.(*Sched).Run.func1":          "sim",
		"blockhead/internal/fault.(*Injector).Roll":                "other",
		"blockhead/internal/core.part[...].func1":                  "core",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"sort.Slice":                              "stdlib",
		"main.main":                               "bench",
		"blockhead/perfbench.(*churn).round":      "bench",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1
		}
	}
}

func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 || len(shares) != len(cpuModules) {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("a busy loop in the benchmark's package got a %.2f share: %v", shares["bench"], shares)
	}
}
