package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// A bench is one workload instance after set-up. Its measured work is a
// sequence of rounds of fixed size, so a round's host time is comparable
// across runs and commits however many rounds a run fits in.
type bench interface {
	// round runs one round and returns the operations it attempted. tr is
	// nil on untraced rounds.
	round(tr *tracer) int
	// check runs outside the timed section after each round: it folds the
	// first digestRounds rounds into the output digest and verifies the
	// conservation invariants. It returns the failed operations: device
	// errors, wrong or missing reads, broken invariants.
	check() int
	// digest hashes the simulated outputs of set-up and the first
	// digestRounds rounds; "" before those rounds have run.
	digest() string
	// markLayers snapshots the layer counters that layers reports deltas of.
	markLayers()
	// layers returns the per-layer metrics accumulated since markLayers,
	// per round, from counter deltas and the tracer's span aggregates.
	layers(tr *tracer, rounds int) map[string]float64
	// accuracy prints simulated outputs beside the paper's reference.
	accuracy() []string
}

// phase is the record of one measured phase. secs and rates are in host
// CPU time: on a shared host, other tenants' load stretches wall-clock
// rounds by up to ~2x from one minute to the next, while the process's CPU
// time stays within a few percent (see README.md).
type phase struct {
	secs, wall, rates, mallocs, bytes []float64
	attempted, failed                 int
	heapGoals                         []float64
	gcCycles                          uint64
	gcCPU, usedCPU                    float64
}

// runPhase runs rounds until at least minRounds have run and seconds have
// passed, stopping at maxRounds when that is nonzero, or at the first
// round with a failed operation.
func runPhase(b bench, tr *tracer, seconds float64, minRounds, maxRounds int) phase {
	runtime.GC()
	var p phase
	cpu0 := readRuntime()
	heap := watchHeap()
	start := time.Now()
	var m0, m1 runtime.MemStats
	for r := 0; r < minRounds || time.Since(start).Seconds() < seconds; r++ {
		if maxRounds > 0 && r >= maxRounds {
			break
		}
		runtime.ReadMemStats(&m0)
		t0, c0 := time.Now(), cpuSeconds()
		n := b.round(tr)
		cpu, wall := cpuSeconds()-c0, time.Since(t0).Seconds()
		f := b.check()
		runtime.ReadMemStats(&m1)
		p.secs = append(p.secs, cpu)
		p.wall = append(p.wall, wall)
		p.rates = append(p.rates, float64(n)/cpu)
		p.mallocs = append(p.mallocs, float64(m1.Mallocs-m0.Mallocs))
		p.bytes = append(p.bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		p.attempted += n
		if !tr.flush() { // self times must sum to the root's time
			f++
		}
		p.failed += f
		if f > 0 {
			break
		}
	}
	p.heapGoals = heap.finish()
	cpu1 := readRuntime()
	p.gcCycles = cpu1.gcCycles - cpu0.gcCycles
	p.gcCPU = cpu1.gcCPU - cpu0.gcCPU
	p.usedCPU = (cpu1.totalCPU - cpu1.idleCPU) - (cpu0.totalCPU - cpu0.idleCPU)
	return p
}

type runtimeStats struct {
	gcCycles                 uint64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		idleCPU:  s[3].Value.Float64(),
	}
}

// heapWatch records the heap goal the Go runtime sets at every GC cycle of
// a phase: at GOGC=100 the heap grows to about that size before the next
// collection, so the goals trace the heap's peaks. It samples from a
// finalizer that re-arms itself, so it catches peaks inside a round without
// a sampling goroutine of its own. The benchmark reports their 95th
// percentile: the single largest goal swings by ~20% from run to run on
// the report workload, with where its parallel lanes happen to collect.
type heapWatch struct {
	mu    sync.Mutex
	goals []float64
	stop  bool
}

// gcTick carries a pointer so it is never tiny-allocated, which would keep
// its finalizer from running once per cycle.
type gcTick struct{ _ *int }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.sample()
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if !w.stop {
			w.sample()
			w.arm()
		}
	})
}

func (w *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	w.goals = append(w.goals, float64(s[0].Value.Uint64()))
}

func (w *heapWatch) finish() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sample()
	w.stop = true
	return w.goals
}

// cpuSeconds is the CPU time the process has used, all threads (the GC's
// background workers and the report's shard lanes included).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
