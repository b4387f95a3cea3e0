// Package pool fixtures: the part pool's inverted concurrency contract.
// Goroutines, WaitGroups, and atomics are legal here — the package exists
// to run independent jobs on workers — but any write rooted in a
// package-level var is shared across workers and is a finding.
package pool

import "sync"

// totalJobs is cross-worker shared memory: writing it from job code is the
// exact race the per-job state model exists to prevent.
var totalJobs int

var workerStats = map[int]int{}

// runWorkers spawns worker goroutines — no concurrency findings in this
// package.
func runWorkers(n int) []int {
	out := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = job(i)
		}()
	}
	wg.Wait()
	return out
}

// job does per-job work but leaks a tally into package state.
func job(worker int) int {
	totalJobs++             // want `\[concurrency\] write to package-level totalJobs`
	workerStats[worker] = 1 // want `\[concurrency\] write to package-level workerStats`
	return worker * 2
}

// merge runs on the caller after the join and still may not write globals.
func merge(parts []int) int {
	total := 0
	for _, p := range parts {
		total += p
	}
	totalJobs = total // want `\[concurrency\] write to package-level totalJobs`
	return total
}
