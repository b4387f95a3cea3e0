// Command benchdiff compares two blockhead/bench/v1 JSON files (the
// machine-readable output of `znsbench -bench-json`, committed as
// BENCH_*.json) and reports per-metric deltas. It exits non-zero when any
// metric regresses beyond the threshold, so `make bench-compare` can gate a
// change on the committed baseline.
//
// Usage:
//
//	benchdiff [-threshold 0.10] [-force] baseline.json new.json
//
// Throughput (write_pages_per_sec) counts as regressed when it drops;
// latencies and write amplification count as regressed when they rise.
// The critical-path what-if ratios count as regressed when they drift in
// either direction — a prediction is pinned, not minimized — which is how
// `make bench-compare` gates the what-if engine at 0.1% on
// BENCH_baseline.json. The exemplar columns (exem_*) are pinned the same
// way: the worst-IO set is a deterministic function of the seeded run.
// Metrics absent from the baseline (zero) are skipped. Entries present in
// only one file are never silently dropped: added entries are listed so
// they can be folded into the baseline, and entries missing from the new
// file fail the comparison (lost coverage is a regression too). Comparing
// a quick run against a full run is refused unless -force is given: their
// numbers measure different regimes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"blockhead/internal/core"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
)

const schema = "blockhead/bench/v1"

type benchFile struct {
	Schema  string            `json:"schema"`
	Seed    int64             `json:"seed"`
	Quick   bool              `json:"quick"`
	Entries []core.BenchEntry `json:"entries"`
}

// metric is one compared column of a BenchEntry. symmetric metrics (the
// what-if prediction ratios) regress when they drift in either direction:
// a prediction is pinned, not minimized.
type metric struct {
	name         string
	higherBetter bool
	symmetric    bool
	get          func(e core.BenchEntry) float64
}

var metrics = []metric{
	{name: "write_pages_per_sec", higherBetter: true, get: func(e core.BenchEntry) float64 { return e.WritePPS }},
	{name: "write_amp", get: func(e core.BenchEntry) float64 { return e.WriteAmp }},
	{name: "read_mean_us", get: func(e core.BenchEntry) float64 { return e.ReadMeanUs }},
	{name: "read_p50_us", get: func(e core.BenchEntry) float64 { return e.ReadP50Us }},
	{name: "read_p90_us", get: func(e core.BenchEntry) float64 { return e.ReadP90Us }},
	{name: "read_p99_us", get: func(e core.BenchEntry) float64 { return e.ReadP99Us }},
	{name: "read_p999_us", get: func(e core.BenchEntry) float64 { return e.ReadP999Us }},
	{name: "write_p99_us", get: func(e core.BenchEntry) float64 { return e.WriteP99Us }},
	{name: "crit_top_path_frac", symmetric: true, get: func(e core.BenchEntry) float64 {
		if e.CritPath == nil {
			return 0
		}
		return e.CritPath.TopPathFrac
	}},
	// The exemplar columns are pinned (symmetric): the worst-IO set is a
	// deterministic function of the seeded run, so any drift — faster OR
	// slower — means the capture layer or the simulation changed.
	{name: "exem_ios", symmetric: true, get: exemCol(func(b exemplar.BenchSummary) float64 { return float64(b.IOs) })},
	{name: "exem_captured", symmetric: true, get: exemCol(func(b exemplar.BenchSummary) float64 { return float64(b.Captured) })},
	{name: "exem_flagged", symmetric: true, get: exemCol(func(b exemplar.BenchSummary) float64 { return float64(b.Flagged) })},
	{name: "exem_worst_read_us", symmetric: true, get: exemCol(func(b exemplar.BenchSummary) float64 { return b.WorstReadUs })},
	{name: "exem_worst_write_us", symmetric: true, get: exemCol(func(b exemplar.BenchSummary) float64 { return b.WorstWriteUs })},
	{name: "exem_sum_top_us", symmetric: true, get: exemCol(func(b exemplar.BenchSummary) float64 { return b.SumTopUs })},
}

// exemCol pulls one exemplar bench column (0 when the entry predates
// exemplar capture, so old baselines compare as "no baseline").
func exemCol(get func(exemplar.BenchSummary) float64) func(core.BenchEntry) float64 {
	return func(e core.BenchEntry) float64 {
		if e.Exemplars == nil {
			return 0
		}
		return get(*e.Exemplars)
	}
}

// critRatio pulls one canonical what-if ratio column out of the critpath
// bench block (0 when the entry predates critpath recording, so old
// baselines compare as "no baseline" instead of failing).
func critRatio(scenario string, col func(critpath.WhatIfBench) float64) func(core.BenchEntry) float64 {
	return func(e core.BenchEntry) float64 {
		if e.CritPath == nil {
			return 0
		}
		return e.CritPath.WhatIfRatio(scenario, col)
	}
}

func init() {
	for _, sc := range critpath.Canonical() {
		for _, col := range []struct {
			name string
			get  func(critpath.WhatIfBench) float64
		}{
			{"read_mean_ratio", func(w critpath.WhatIfBench) float64 { return w.ReadMeanRatio }},
			{"read_p99_ratio", func(w critpath.WhatIfBench) float64 { return w.ReadP99Ratio }},
			{"write_mean_ratio", func(w critpath.WhatIfBench) float64 { return w.WriteMeanRatio }},
			{"write_p99_ratio", func(w critpath.WhatIfBench) float64 { return w.WriteP99Ratio }},
		} {
			metrics = append(metrics, metric{
				name:      "whatif[" + sc.Name + "]." + col.name,
				symmetric: true,
				get:       critRatio(sc.Name, col.get),
			})
		}
	}
}

func main() {
	var (
		threshold = flag.Float64("threshold", 0.10, "relative regression beyond which benchdiff fails (0.10 = 10%)")
		force     = flag.Bool("force", false, "compare even when one file is a quick run and the other is not")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.10] [-force] baseline.json new.json")
		os.Exit(2)
	}
	old, err := load(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	new_, err := load(flag.Arg(1))
	if err != nil {
		fail(err)
	}
	if old.Quick != new_.Quick && !*force {
		fail(fmt.Errorf("quick mismatch: %s quick=%v, %s quick=%v (pass -force to compare anyway)",
			flag.Arg(0), old.Quick, flag.Arg(1), new_.Quick))
	}
	if old.Seed != new_.Seed {
		fmt.Fprintf(os.Stderr, "benchdiff: note: seeds differ (%d vs %d); deltas include workload noise\n",
			old.Seed, new_.Seed)
	}

	key := func(e core.BenchEntry) string { return e.Experiment + "/" + e.Name }
	baseline := make(map[string]core.BenchEntry, len(old.Entries))
	for _, e := range old.Entries {
		baseline[key(e)] = e
	}

	regressions := 0
	matched := 0
	var added []string
	for _, ne := range new_.Entries {
		oe, ok := baseline[key(ne)]
		if !ok {
			added = append(added, key(ne))
			continue
		}
		matched++
		delete(baseline, key(ne))
		fmt.Printf("%s\n", key(ne))
		for _, m := range metrics {
			ov, nv := m.get(oe), m.get(ne)
			if ov == 0 && nv == 0 {
				continue
			}
			if ov == 0 {
				fmt.Printf("  %-20s %12s -> %12.2f   (no baseline)\n", m.name, "-", nv)
				continue
			}
			delta := (nv - ov) / ov
			verdict := ""
			bad := delta > *threshold
			if m.higherBetter {
				bad = delta < -*threshold
			}
			if m.symmetric {
				bad = delta > *threshold || delta < -*threshold
			}
			if bad {
				verdict = fmt.Sprintf("  REGRESSION (>%.0f%%)", *threshold*100)
				regressions++
			}
			fmt.Printf("  %-20s %12.2f -> %12.2f   %+6.1f%%%s\n", m.name, ov, nv, delta*100, verdict)
		}
	}
	// Keys present in only one file are reported explicitly, never
	// silently dropped. Added keys are informational (a new experiment
	// has no baseline yet); removed keys fail the run, because a
	// benchmark that stopped being produced is lost coverage.
	var removed []string
	for k := range baseline {
		removed = append(removed, k)
	}
	sort.Strings(added)
	sort.Strings(removed)
	for _, k := range added {
		fmt.Printf("%s: added (in %s only; fold into the baseline)\n", k, flag.Arg(1))
	}
	for _, k := range removed {
		fmt.Printf("%s: removed (in %s but missing from %s)\n", k, flag.Arg(0), flag.Arg(1))
	}
	if matched == 0 {
		fail(fmt.Errorf("no entries in common between %s and %s", flag.Arg(0), flag.Arg(1)))
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) regressed beyond %.0f%%\n", regressions, *threshold*100)
		os.Exit(1)
	}
	if len(removed) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d baseline entr%s missing from %s\n",
			len(removed), plural(len(removed), "y", "ies"), flag.Arg(1))
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d entries compared, no regression beyond %.0f%%", matched, *threshold*100)
	if len(added) > 0 {
		fmt.Printf(" (%d new entr%s not in baseline)", len(added), plural(len(added), "y", "ies"))
	}
	fmt.Println()
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func load(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return f, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
