package pool

import (
	"sync/atomic"
	"testing"
)

// Every index runs exactly once at every width, including widths above the
// job count and the degenerate widths below 1.
func TestRunEveryIndexOnce(t *testing.T) {
	const n = 9
	for _, width := range []int{-1, 0, 1, 2, 4, n, n + 3} {
		var hits [n]int32
		Run(width, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Errorf("width=%d: index %d ran %d times, want 1", width, i, h)
			}
		}
	}
	Run(4, 0, func(int) { t.Error("fn called with n=0") })
}

// Worker w owns indices w, w+width, …, run in increasing order: recording
// each job's predecessor on its worker must reproduce that assignment.
func TestRunAssignment(t *testing.T) {
	const n, width = 10, 3
	prev := make([]int, n)
	last := make([]int, width)
	for w := range last {
		last[w] = -1
	}
	Run(width, n, func(i int) {
		w := i % width // only worker w touches last[w]
		prev[i] = last[w]
		last[w] = i
	})
	for i, p := range prev {
		want := i - width
		if want < 0 {
			want = -1
		}
		if p != want {
			t.Errorf("index %d ran after %d on its worker, want %d", i, p, want)
		}
	}
}

// A panic in a worker surfaces on the caller after every worker joined, and
// it is the panic of the lowest panicking index whatever the timing.
func TestRunPanicPropagates(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		var ran int32
		func() {
			defer func() {
				if r := recover(); r != "boom 3" {
					t.Errorf("width=%d: recovered %v, want boom 3", width, r)
				}
			}()
			Run(width, 8, func(i int) {
				atomic.AddInt32(&ran, 1)
				if i == 3 || i == 6 {
					panic("boom " + string(rune('0'+i)))
				}
			})
		}()
		// The panicking worker stops; the others finish their jobs before
		// the re-raise.
		if width > 1 && ran < 6 {
			t.Errorf("width=%d: %d jobs ran before the re-raise, want every non-panicked worker to finish", width, ran)
		}
	}
}
