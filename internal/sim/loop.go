package sim

import "container/heap"

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break so same-time events run in scheduling order
	fn  func(now Time)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Loop executes scheduled callbacks in strict virtual-time order.
// Callbacks may schedule further callbacks; the loop runs until the event
// queue is empty or Stop is called. Two events scheduled for the same time
// run in the order they were scheduled.
//
// A closed-loop worker is expressed as a callback that performs one
// operation and reschedules itself at the operation's completion time;
// an open-loop arrival process schedules one callback per arrival.
type Loop struct {
	h       eventHeap
	now     Time
	seq     uint64
	stopped bool
	steps   uint64

	// OnEvent, if set, runs after every executed event with the loop's
	// current time. It is the hook telemetry uses to drive its virtual-time
	// sampler from the event loop (telemetry.Probe.Tick is nil-safe and fits
	// directly); keep it cheap, it runs once per event.
	OnEvent func(now Time)
}

// NewLoop returns an empty event loop positioned at time 0.
func NewLoop() *Loop { return &Loop{} }

// Now reports the loop's current virtual time: the timestamp of the event
// being executed, or of the last event executed.
func (l *Loop) Now() Time { return l.now }

// At schedules fn to run at time t. Scheduling an event in the past
// (t < Now) is a programming error and panics: it would violate causality
// and silently corrupt latency measurements.
func (l *Loop) At(t Time, fn func(now Time)) {
	if t < l.now {
		panic("sim: event scheduled in the past")
	}
	l.seq++
	heap.Push(&l.h, event{at: t, seq: l.seq, fn: fn})
}

// After schedules fn to run d after the loop's current time.
func (l *Loop) After(d Time, fn func(now Time)) { l.At(l.now+d, fn) }

// Stop makes the in-progress Run or RunUntil return after the current event
// completes. The flag is scoped to one run: the next Run/RunUntil call clears
// it and resumes from the queue, so a Stop issued while no run is in progress
// has no effect. Remaining events stay queued.
func (l *Loop) Stop() { l.stopped = true }

// Steps reports how many events have been executed.
func (l *Loop) Steps() uint64 { return l.steps }

// Run executes events until the queue is empty or Stop is called.
// It returns the virtual time of the last event executed.
func (l *Loop) Run() Time {
	l.stopped = false
	for len(l.h) > 0 && !l.stopped {
		e := heap.Pop(&l.h).(event)
		l.now = e.at
		l.steps++
		e.fn(e.at)
		if l.OnEvent != nil {
			l.OnEvent(e.at)
		}
	}
	return l.now
}

// RunUntil executes events with timestamps <= deadline, leaving later events
// queued, and advances the clock to the deadline (so a subsequent At(t) with
// t in (lastEvent, deadline] is legal and immediate work lands after the
// window, matching a real device that sat idle until the deadline). If Stop
// fires mid-run the clock stays at the stopping event instead: events <=
// deadline may still be queued, and jumping past them would run them with a
// time already beyond their timestamps on resume.
func (l *Loop) RunUntil(deadline Time) Time {
	l.stopped = false
	for len(l.h) > 0 && !l.stopped && l.h[0].at <= deadline {
		e := heap.Pop(&l.h).(event)
		l.now = e.at
		l.steps++
		e.fn(e.at)
		if l.OnEvent != nil {
			l.OnEvent(e.at)
		}
	}
	if !l.stopped && l.now < deadline {
		l.now = deadline
	}
	return l.now
}
