package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap event queue the typed heap replaced, kept
// as the oracle for the pop order.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEventHeapMatchesContainerHeap interleaves random pushes (few distinct
// timestamps, so many ties) and pops on the typed heap and on the
// container/heap reference: both must pop the identical (at, seq) sequence.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var got eventHeap
		var want refHeap
		var seq uint64
		spread := 1 + rng.Intn(8)
		for op := 0; op < 400; op++ {
			if len(want) == 0 || rng.Intn(3) != 0 {
				seq++
				e := event{at: Time(rng.Intn(spread)), seq: seq}
				got.push(e)
				heap.Push(&want, e)
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(event)
			if g.at != w.at || g.seq != w.seq {
				t.Fatalf("trial %d op %d: popped (%d,%d), want (%d,%d)", trial, op, g.at, g.seq, w.at, w.seq)
			}
		}
		for len(want) > 0 {
			g, w := got.pop(), heap.Pop(&want).(event)
			if g.at != w.at || g.seq != w.seq {
				t.Fatalf("trial %d drain: popped (%d,%d), want (%d,%d)", trial, g.at, g.seq, w.at, w.seq)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: typed heap holds %d events after the reference drained", trial, len(got))
		}
	}
}

// scheduleBatch queues 64 events at a few distinct times after now and
// runs them.
func scheduleBatch(l *Loop, fn func(Time)) {
	for i := 0; i < 64; i++ {
		l.At(l.Now()+Time(i%7), fn)
	}
	l.Run()
}

// TestLoopEventZeroAllocs pins the event loop's cost: once the heap has
// grown, scheduling and running an event allocates nothing.
func TestLoopEventZeroAllocs(t *testing.T) {
	l := NewLoop()
	fn := func(Time) {}
	scheduleBatch(l, fn)
	if allocs := testing.AllocsPerRun(100, func() { scheduleBatch(l, fn) }); allocs != 0 {
		t.Fatalf("At+Run: %.1f allocs per 64 events, want 0", allocs)
	}
}

func BenchmarkLoopEvent(b *testing.B) {
	l := NewLoop()
	fn := func(Time) {}
	scheduleBatch(l, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.At(l.Now()+Time(i%7), fn)
		if i%64 == 63 {
			l.Run()
		}
	}
	l.Run()
}
