package main

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"blockhead/internal/sim"
)

// defaultSeed is the seed whose output digests are pinned below.
const defaultSeed = 42

// heldOutSeed is reserved for validation: it played no part in choosing the
// workloads' sizes and checks, and its runs pass every invariant check. Its
// digests are deliberately not pinned.
const heldOutSeed = 20261017

// pinnedDigests are the simulated-output digests of the first digestRounds
// rounds at defaultSeed and full size, recorded on the commit that added the
// benchmark. A change that alters what the simulator computes must
// re-record them deliberately.
var pinnedDigests = map[string]string{
	"conv-churn": "2c53fc8ff67e4dfb",
	"zns-churn":  "c3b094552e845cd9",
	"kv-mixed":   "10daf6cc05edac0d",
}

// quantiles returns exact nearest-rank p50/p90/p99/p999/max of raw
// virtual-time latency samples. They are computed here rather than through
// stats.Histogram so that a change to the simulator's histogram cannot move
// the benchmark's output check.
func quantiles(samples []sim.Time) [5]sim.Time {
	s := slices.Clone(samples)
	slices.Sort(s)
	var q [5]sim.Time
	for i, p := range []float64{0.50, 0.90, 0.99, 0.999, 1} {
		q[i] = nearestRank(s, p)
	}
	return q
}

// nearestRank returns the nearest-rank q-quantile of sorted values, or the
// zero value if there are none.
func nearestRank[T cmp.Ordered](sorted []T, q float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// digest accumulates canonical text lines describing simulated outputs and
// hashes them.
type digest struct {
	lines []string
}

func (d *digest) add(format string, args ...any) {
	d.lines = append(d.lines, fmt.Sprintf(format, args...))
}

// addCounters records a counter snapshot in sorted key order.
func (d *digest) addCounters(label string, c map[string]uint64) {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(label)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, c[k])
	}
	d.lines = append(d.lines, b.String())
}

func (d *digest) addLatency(label string, samples []sim.Time) {
	q := quantiles(samples)
	d.add("%s n=%d p50=%d p90=%d p99=%d p999=%d max=%d", label, len(samples), q[0], q[1], q[2], q[3], q[4])
}

func (d *digest) sum() string {
	h := fnv.New64a()
	for _, l := range d.lines {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// invariants collects broken conservation checks; each counts as one failed
// operation.
type invariants struct {
	broken []string
}

func (v *invariants) eq(what string, got, want uint64) {
	if got != want {
		v.broken = append(v.broken, fmt.Sprintf("%s: %d != %d", what, got, want))
	}
}

func (v *invariants) le(what string, a, b uint64) {
	if a > b {
		v.broken = append(v.broken, fmt.Sprintf("%s: %d > %d", what, a, b))
	}
}

func (v *invariants) fail(format string, args ...any) {
	v.broken = append(v.broken, fmt.Sprintf(format, args...))
}

// delta subtracts two counter snapshots key by key.
func delta(now, before map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(now))
	for k, v := range now {
		d[k] = v - before[k]
	}
	return d
}
