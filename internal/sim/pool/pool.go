// Package pool runs a fixed list of independent jobs on a deterministic
// set of workers. It is the one library package outside the telemetry
// server allowed to spawn goroutines; in exchange it must not write
// package-level state (simlint's concurrency rule enforces both).
//
// Which jobs share a worker is a pure function of (width, n): worker w runs
// indices w, w+width, w+2·width, … in increasing order. Callers that keep
// every job's state private to the job — as the experiment harness's parts
// do — therefore get the same results at every width.
package pool

import "sync"

// Run calls fn(i) once for every i in [0, n) on min(width, n) workers and
// returns when all have finished. A width below 1 counts as 1.
//
// A panic in fn stops that worker. Run waits for every worker to finish
// and then re-raises the panic of the lowest panicking index, so the
// panic a caller sees does not depend on goroutine timing.
func Run(width, n int, fn func(i int)) {
	if width > n {
		width = n
	}
	if width < 1 {
		width = 1
	}
	type failure struct {
		index int
		value interface{}
	}
	failed := make([]*failure, width)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			defer func() {
				if r := recover(); r != nil {
					failed[w] = &failure{index: i, value: r}
				}
			}()
			for ; i < n; i += width {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
	var first *failure
	for _, f := range failed {
		if f != nil && (first == nil || f.index < first.index) {
			first = f
		}
	}
	if first != nil {
		panic(first.value)
	}
}
