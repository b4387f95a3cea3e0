package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name   int32
	parent int32 // index of the enclosing span in the round, -1 for the root
	req    int64 // shared by an IO and every span nested in it
	flag   bool  // the call did reclamation work (a GC run, a zone reset)
	start  int64 // ns since the tracer's epoch
	end    int64
}

// spanAgg accumulates one span name over the traced rounds.
type spanAgg struct {
	calls, flagCalls int64
	ns, flagNS       int64
	selfNS           int64
}

// tracer records spans around the calls the benchmark makes into each
// layer. A nil *tracer is the untraced path: every method returns at once.
// Spans live in memory for one round; flush folds them into per-name
// aggregates and keeps the first round's spans to write out at the end.
type tracer struct {
	epoch   time.Time
	names   []string
	ids     map[string]int32
	spans   []span
	open    []int32
	nextReq int64

	agg  []spanAgg // by name id
	kept []span
	// rootNS and selfSumNS are the summed root durations and the summed
	// self times of every flushed span; they must be equal.
	rootNS, selfSumNS int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]int32{}}
}

// id registers a span name. Nil-safe, so set-up code can call it
// unconditionally.
func (t *tracer) id(name string) int32 {
	if t == nil {
		return -1
	}
	if i, ok := t.ids[name]; ok {
		return i
	}
	i := int32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = i
	t.agg = append(t.agg, spanAgg{})
	return i
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) push(name int32, req int64) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		if req == 0 {
			req = t.spans[parent].req
		}
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: t.now()})
	t.open = append(t.open, i)
	return i
}

// begin opens a span inside the innermost open one, sharing its request id.
func (t *tracer) begin(name int32) int32 {
	if t == nil {
		return -1
	}
	return t.push(name, 0)
}

// beginIO opens a span for one IO: it gets a fresh request id that the
// spans nested in it inherit.
func (t *tracer) beginIO(name int32) int32 {
	if t == nil {
		return -1
	}
	t.nextReq++
	return t.push(name, t.nextReq)
}

func (t *tracer) end(i int32) { t.endFlag(i, false) }

// endFlag closes span i (which must be the innermost open span).
func (t *tracer) endFlag(i int32, flag bool) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.end = t.now()
	s.flag = flag
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Spans must be in start order, as recorded.
func selfTimes(spans []span) []int64 {
	covered := make([]int64, len(spans))
	cursor := make([]int64, len(spans)) // end of the covered prefix per parent
	for i := range spans {
		cursor[i] = spans[i].start
	}
	for _, c := range spans {
		if c.parent < 0 {
			continue
		}
		p := spans[c.parent]
		lo := max(c.start, cursor[c.parent])
		hi := min(c.end, p.end)
		if hi > lo {
			covered[c.parent] += hi - lo
		}
		cursor[c.parent] = max(cursor[c.parent], hi)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered[i]
	}
	return self
}

// flush folds the round's spans into the aggregates and reports whether
// the round's self times summed exactly to its root spans' durations.
func (t *tracer) flush() bool {
	if t == nil {
		return true
	}
	if len(t.open) != 0 {
		panic("perfbench: flush with open spans")
	}
	var root, sum int64
	for i, self := range selfTimes(t.spans) {
		s := t.spans[i]
		a := &t.agg[s.name]
		d := s.end - s.start
		a.calls++
		a.ns += d
		a.selfNS += self
		if s.flag {
			a.flagCalls++
			a.flagNS += d
		}
		if s.parent < 0 {
			root += d
		}
		sum += self
	}
	t.rootNS += root
	t.selfSumNS += sum
	if t.kept == nil {
		t.kept = append([]span{}, t.spans...)
	}
	t.spans = t.spans[:0]
	return root == sum
}

// stat returns the aggregate for a span name (zero if never recorded).
func (t *tracer) stat(name string) spanAgg {
	if i, ok := t.ids[name]; ok {
		return t.agg[i]
	}
	return spanAgg{}
}

// writeSpans writes the first traced round's spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.kept {
		rec := struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Parent  int32  `json:"parent"`
			Req     int64  `json:"req"`
			Flag    bool   `json:"flag,omitempty"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{i, t.names[s.name], s.parent, s.req, s.flag, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
