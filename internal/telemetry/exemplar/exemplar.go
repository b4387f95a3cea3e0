// Package exemplar captures worst-K tail exemplars: for each measured IO
// that lands in the latency tail (or trips an auditor violation or fault
// retry), it records the full per-phase timeline from the AttrSink charge
// stream, the critical-path split and queued-behind identities from the
// attached critpath recorder, the culprit-tenant blame vector, and a
// compact device-state snapshot at completion. The aggregate layers say
// how much tail there is; this layer says which IOs sat in it and what
// exactly they queued behind.
//
// The package inherits the telemetry contract wholesale:
//
//   - The nil *Reservoir is a valid no-op on every method.
//   - No hot-path method allocates: per-tenant heaps and the flagged ring
//     are preallocated, and the admission test runs before any capture
//     work, so the common (fast) IO costs one comparison.
//   - Everything is deterministic: admission is a pure function of the
//     (deterministic) latency stream, so the same seed yields the same
//     exemplar set byte-for-byte.
//
// Every exemplar carries the sink's measured-IO sequence number; together
// with the run's seed and experiment ID it identifies one IO for
// deterministic forensic replay (`znsbench -explain <exp>:<seq>`,
// narrate.go).
package exemplar

import (
	"fmt"
	"sort"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
)

// NumZoneStates is the width of the zone-state census in a DevSnap,
// matching the ZNS zone state machine (internal/zns).
const NumZoneStates = 6

// zoneStateNames is the census display order (the zns ZoneState order).
var zoneStateNames = [NumZoneStates]string{
	"empty", "open", "closed", "full", "read_only", "offline",
}

// DevSnap is a compact device-state snapshot taken at IO completion. The
// experiment wires a SnapFunc per stack (SetSnap); a zero DevSnap
// (Captured false) means no snapshot source was armed.
type DevSnap struct {
	Captured bool

	// Zoned-stack state: the zone census by state (zns order: empty,
	// open, closed, full, read_only, offline), plus the busiest open zone
	// (highest write pointer) and its WP. HotZone is -1 when unknown.
	Zoned     bool
	ZoneCount [NumZoneStates]int32
	HotZone   int32
	HotWP     int64

	// Channel/LUN occupancy: how many of the chip's resources were still
	// busy (acquired past the completion instant).
	BusyLUNs, TotalLUNs   int32
	BusyChans, TotalChans int32

	// Reclaim state: cumulative GC/reclaim passes (device-FTL GC runs or
	// host-FTL zone resets), whether reclamation was in flight at
	// completion, and the free-capacity backlog (free blocks for the
	// device FTL, free zones for the host FTL).
	GCRuns   uint64
	GCActive bool
	Free     int64
}

// String renders the snapshot as one report line.
func (s DevSnap) String() string {
	if !s.Captured {
		return "(not captured)"
	}
	out := ""
	if s.Zoned {
		out += "zones:"
		for i := 0; i < NumZoneStates; i++ {
			if s.ZoneCount[i] != 0 {
				out += fmt.Sprintf(" %s=%d", zoneStateNames[i], s.ZoneCount[i])
			}
		}
		if s.HotZone >= 0 {
			out += fmt.Sprintf(" | wp(z%d)=%d", s.HotZone, s.HotWP)
		}
		out += " | "
	}
	out += fmt.Sprintf("luns busy %d/%d | chans busy %d/%d | gc: %d runs",
		s.BusyLUNs, s.TotalLUNs, s.BusyChans, s.TotalChans, s.GCRuns)
	if s.GCActive {
		out += " (in flight)"
	}
	out += fmt.Sprintf(", free=%d", s.Free)
	return out
}

// SnapFunc fills a device-state snapshot for an IO that completed at done.
// It runs only for admitted exemplars, on the simulation thread.
type SnapFunc func(done sim.Time, s *DevSnap)

// Exemplar is one captured IO: identity, exact phase timeline (sums to
// Total by the attribution invariant), blame vector, critical-path split
// with queued-behind identities, and the device snapshot at completion.
type Exemplar struct {
	Seq    uint64
	Op     telemetry.OpKind
	Tenant telemetry.TenantID
	Start  sim.Time
	Total  sim.Time
	Flags  uint8
	Phases [telemetry.NumPhases]sim.Time
	Blame  [telemetry.MaxTenants]sim.Time
	Path   critpath.PathRec
	PathOK bool
	Snap   DevSnap
}

// FlagNames renders the exemplar's flag bits as stable wire names.
func (e Exemplar) FlagNames() []string {
	var out []string
	if e.Flags&telemetry.FlagFaultRetry != 0 {
		out = append(out, "fault_retry")
	}
	if e.Flags&telemetry.FlagAuditViolation != 0 {
		out = append(out, "audit_violation")
	}
	return out
}

// TopPhase reports the phase holding the largest share of the exemplar's
// latency (ties: earliest phase in display order).
func (e Exemplar) TopPhase() telemetry.Phase {
	best := telemetry.Phase(0)
	var bestV sim.Time
	for p := 0; p < telemetry.NumPhases; p++ {
		if e.Phases[p] > bestV {
			bestV = e.Phases[p]
			best = telemetry.Phase(p)
		}
	}
	return best
}

// worse is the admission order: a is kept over b when a's latency is
// higher, ties broken toward the earlier sequence number (first
// occurrence). Deterministic total order, so the retained set is a pure
// function of the IO stream.
func worse(aTotal sim.Time, aSeq uint64, bTotal sim.Time, bSeq uint64) bool {
	if aTotal != bTotal {
		return aTotal > bTotal
	}
	return aSeq < bSeq
}

// Options configures a Reservoir.
type Options struct {
	// K bounds the per-tenant worst-K heap (default DefaultK).
	K int
	// FlagCap bounds the always-keep ring for flagged IOs (default
	// DefaultFlagCap); once full, the oldest flagged exemplar is
	// overwritten, so the ring holds the most recent flagged IOs.
	FlagCap int
}

// DefaultK is the per-tenant worst-K capacity when Options.K is 0.
const DefaultK = 8

// DefaultFlagCap is the flagged-ring capacity when Options.FlagCap is 0.
const DefaultFlagCap = 16

// Reservoir implements telemetry.ExemplarSink: a fixed-capacity min-heap
// of worst-K exemplars per tenant, keyed by end-to-end latency, plus an
// always-keep ring for flagged IOs (auditor violations, fault retries).
// The nil *Reservoir is a valid no-op on every method and no hot-path
// method allocates (see the package comment).
//
//simlint:nilsafe
type Reservoir struct {
	k        int
	heaps    [telemetry.MaxTenants][]Exemplar
	flagged  []Exemplar
	flagNext int
	flagSeen uint64
	ios      uint64

	// pending header of the open record (BeginExemplar..EndExemplar).
	active bool
	seq    uint64
	op     telemetry.OpKind
	tenant telemetry.TenantID
	start  sim.Time

	// path is the critical-path source read at completion; snap fills the
	// device-state snapshot. Both optional; SetSnap re-arms snap per stack.
	path *critpath.Recorder
	snap SnapFunc

	// drained is the most recent non-empty Drain result, kept so the live
	// dashboard can keep serving the last completed recording window.
	drained Snapshot
}

// New returns an empty reservoir with preallocated storage.
func New(opts Options) *Reservoir {
	k := opts.K
	if k <= 0 {
		k = DefaultK
	}
	fc := opts.FlagCap
	if fc <= 0 {
		fc = DefaultFlagCap
	}
	r := &Reservoir{k: k, flagged: make([]Exemplar, 0, fc)}
	for t := 0; t < telemetry.MaxTenants; t++ {
		r.heaps[t] = make([]Exemplar, 0, k)
	}
	return r
}

// Attach creates a reservoir and installs it as sink's exemplar sink,
// reading critical paths from the recorder already attached to the sink
// (if any). Returns nil (a valid no-op) when sink is nil.
func Attach(sink *telemetry.AttrSink, opts Options) *Reservoir {
	if sink == nil {
		return nil
	}
	r := New(opts)
	r.path = critpath.FromSink(sink)
	sink.Exem = r
	return r
}

// FromSink returns the reservoir attached to sink, or nil if sink is nil
// or carries no reservoir.
func FromSink(sink *telemetry.AttrSink) *Reservoir {
	if sink == nil {
		return nil
	}
	r, _ := sink.Exem.(*Reservoir)
	return r
}

// SetSnap arms (or replaces) the device-state snapshot source. Experiments
// re-arm it per stack, right before the stack's measured window. Nil-safe.
func (r *Reservoir) SetSnap(fn SnapFunc) {
	if r == nil {
		return
	}
	r.snap = fn
}

// BeginExemplar opens the record for one measured IO (telemetry.ExemplarSink).
func (r *Reservoir) BeginExemplar(seq uint64, op telemetry.OpKind, tenant telemetry.TenantID, start sim.Time) {
	if r == nil {
		return
	}
	r.active = true
	r.seq = seq
	r.op = op
	r.tenant = tenant
	r.start = start
}

// EndExemplar completes the record (telemetry.ExemplarSink): the admission
// test runs first, so the common IO pays one comparison and no capture
// work. Admitted IOs copy the phase timeline and blame vector, read the
// completed critical path out of the attached recorder, and take a device
// snapshot.
func (r *Reservoir) EndExemplar(done sim.Time, phases *[telemetry.NumPhases]sim.Time, blame *[telemetry.MaxTenants]sim.Time, flags uint8) {
	if r == nil || !r.active {
		return
	}
	r.active = false
	r.ios++
	total := done - r.start
	heap := r.heaps[r.tenant]
	admitHeap := len(heap) < cap(heap) || worse(total, r.seq, heap[0].Total, heap[0].Seq)
	admitFlag := flags != 0
	if !admitHeap && !admitFlag {
		return
	}
	ex := Exemplar{
		Seq:    r.seq,
		Op:     r.op,
		Tenant: r.tenant,
		Start:  r.start,
		Total:  total,
		Flags:  flags,
		Phases: *phases,
		Blame:  *blame,
	}
	if rec, ok := r.path.Last(); ok {
		ex.Path = rec
		ex.PathOK = true
	}
	if r.snap != nil {
		r.snap(done, &ex.Snap)
		ex.Snap.Captured = true
	}
	if admitHeap {
		r.admit(ex)
	}
	if admitFlag {
		r.flagSeen++
		if len(r.flagged) < cap(r.flagged) {
			r.flagged = append(r.flagged, ex)
		} else {
			r.flagged[r.flagNext] = ex
			r.flagNext = (r.flagNext + 1) % cap(r.flagged)
		}
	}
}

// admit pushes ex into its tenant's worst-K min-heap (replacing the least
// worst exemplar when full). Manual sift on the preallocated array — no
// interface boxing, no allocation.
func (r *Reservoir) admit(ex Exemplar) {
	h := r.heaps[ex.Tenant]
	if len(h) < cap(h) {
		h = append(h, ex)
		r.heaps[ex.Tenant] = h
		// sift up
		i := len(h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(h[parent].Total, h[parent].Seq, h[i].Total, h[i].Seq) {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
		return
	}
	// replace root (the least worst retained exemplar), sift down
	h[0] = ex
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		least := i
		if l < len(h) && worse(h[least].Total, h[least].Seq, h[l].Total, h[l].Seq) {
			least = l
		}
		if rr < len(h) && worse(h[least].Total, h[least].Seq, h[rr].Total, h[rr].Seq) {
			least = rr
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// DropExemplar abandons the open record (telemetry.ExemplarSink).
func (r *Reservoir) DropExemplar() {
	if r == nil {
		return
	}
	r.active = false
}

// IOs reports how many measured IOs completed since the last Drain.
func (r *Reservoir) IOs() uint64 {
	if r == nil {
		return 0
	}
	return r.ios
}

// Snapshot is a copyable capture of a reservoir's retained exemplars.
// Tenants[t] is tenant t's worst-K sorted worst-first; Flagged is the
// always-keep ring in sequence order; FlagSeen counts every flagged IO
// observed, including those the ring has since overwritten.
type Snapshot struct {
	IOs      uint64
	K        int
	Tenants  [telemetry.MaxTenants][]Exemplar
	Flagged  []Exemplar
	FlagSeen uint64
}

// Snapshot returns a sorted copy of the reservoir's state since the last
// Drain. It allocates, so it is for publish/report time, not the per-IO
// path.
func (r *Reservoir) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{IOs: r.ios, K: r.k, FlagSeen: r.flagSeen}
	for t := 0; t < telemetry.MaxTenants; t++ {
		if len(r.heaps[t]) == 0 {
			continue
		}
		ex := make([]Exemplar, len(r.heaps[t]))
		copy(ex, r.heaps[t])
		sortWorstFirst(ex)
		s.Tenants[t] = ex
	}
	if len(r.flagged) > 0 {
		s.Flagged = make([]Exemplar, len(r.flagged))
		copy(s.Flagged, r.flagged)
		sort.Slice(s.Flagged, func(i, j int) bool { return s.Flagged[i].Seq < s.Flagged[j].Seq })
	}
	return s
}

// Rebase shifts every retained exemplar's sequence number by delta. The
// experiment harness runs each part's stack against its own sink, whose
// measured-IO numbering starts at 1; rebasing by the total measured-IO
// count of the preceding parts (in part order) reproduces the numbering of
// one sink shared by every part, so `-explain <exp>:<seq>` hints stay valid
// at any pool width. A constant offset preserves the reservoir's worst-K
// tie-break order (older wins), so only the labels change.
func (s *Snapshot) Rebase(delta uint64) {
	if delta == 0 {
		return
	}
	for t := range s.Tenants {
		for i := range s.Tenants[t] {
			s.Tenants[t][i].Seq += delta
		}
	}
	for i := range s.Flagged {
		s.Flagged[i].Seq += delta
	}
}

// Drain returns a snapshot of everything captured since the previous Drain
// and resets the reservoir, so one reservoir shared across stacks yields
// per-stack sections the way AttrSnapshot deltas do. The snapshot source
// (SetSnap) is left armed.
func (r *Reservoir) Drain() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := r.Snapshot()
	if s.IOs > 0 {
		r.drained = s
	}
	r.ios = 0
	r.flagSeen = 0
	r.flagNext = 0
	r.flagged = r.flagged[:0]
	for t := 0; t < telemetry.MaxTenants; t++ {
		r.heaps[t] = r.heaps[t][:0]
	}
	return s
}

// LastDrained returns the most recent non-empty snapshot taken by Drain —
// the last completed recording window — or the zero Snapshot.
func (r *Reservoir) LastDrained() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return r.drained
}

// sortWorstFirst orders exemplars by descending latency, ascending seq.
func sortWorstFirst(ex []Exemplar) {
	sort.Slice(ex, func(i, j int) bool {
		return worse(ex[i].Total, ex[i].Seq, ex[j].Total, ex[j].Seq)
	})
}

// TopK merges every tenant's worst-K and returns the overall worst n
// exemplars (all retained exemplars when n <= 0), worst-first.
func (s Snapshot) TopK(n int) []Exemplar {
	var all []Exemplar
	for t := 0; t < telemetry.MaxTenants; t++ {
		all = append(all, s.Tenants[t]...)
	}
	sortWorstFirst(all)
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// Captured reports how many exemplars the snapshot retains across tenants
// (the flagged ring not included).
func (s Snapshot) Captured() int {
	n := 0
	for t := 0; t < telemetry.MaxTenants; t++ {
		n += len(s.Tenants[t])
	}
	return n
}

// DumpSchema identifies the /exemplars.json wire format.
const DumpSchema = "blockhead/exemplars/v1"

// Dump is the JSON shape of an exemplar export (/exemplars.json).
type Dump struct {
	Schema   string         `json:"schema"`
	IOs      uint64         `json:"ios"`
	K        int            `json:"k"`
	Worst    []ExemplarDump `json:"worst"`
	Flagged  []ExemplarDump `json:"flagged,omitempty"`
	FlagSeen uint64         `json:"flag_seen,omitempty"`
}

// ExemplarDump is one exemplar's JSON shape. Phases lists the nonzero
// phases in display order; their microseconds sum to TotalUs exactly (the
// attribution invariant, carried through to the wire).
type ExemplarDump struct {
	Seq      uint64       `json:"seq"`
	Op       string       `json:"op"`
	Tenant   string       `json:"tenant"`
	StartMs  float64      `json:"start_ms"`
	TotalUs  float64      `json:"total_us"`
	TopPhase string       `json:"top_phase"`
	Flags    []string     `json:"flags,omitempty"`
	Phases   []PhaseUs    `json:"phases"`
	Blame    []BlameUs    `json:"blame,omitempty"`
	Device   string       `json:"device,omitempty"`
	WaitedOn []WaitedDump `json:"waited_on,omitempty"`
}

// PhaseUs is one nonzero phase of an exemplar's timeline.
type PhaseUs struct {
	Name string  `json:"name"`
	Us   float64 `json:"us"`
}

// BlameUs is one culprit's share of the exemplar's blamed stall time.
type BlameUs struct {
	Tenant string  `json:"tenant"`
	Us     float64 `json:"us"`
}

// WaitedDump is one wait phase's queued-behind split from the critical
// path: how long the IO waited in the phase behind each occupant service.
type WaitedDump struct {
	Phase  string  `json:"phase"`
	Behind string  `json:"behind"`
	Us     float64 `json:"us"`
}

// waitPhases maps critpath wait slots back to attribution phases, in the
// critpath wait order.
var waitPhases = [critpath.NumWaits]telemetry.Phase{
	telemetry.PhaseWPSerial, telemetry.PhaseChanWait, telemetry.PhaseLUNWait,
}

// bindNames maps critpath bind slots to service-phase names, in the
// critpath bind order.
var bindNames = [critpath.NumBinds]string{
	telemetry.PhaseXfer.String(), telemetry.PhaseNANDRead.String(),
	telemetry.PhaseNANDProgram.String(), telemetry.PhaseNANDErase.String(),
}

// DumpOne converts one exemplar to its JSON shape. name labels tenants
// (nil uses "t<i>"/"sys" defaults).
func DumpOne(e Exemplar, name func(telemetry.TenantID) string) ExemplarDump {
	d := ExemplarDump{
		Seq:      e.Seq,
		Op:       e.Op.String(),
		Tenant:   tenantLabel(e.Tenant, name),
		StartMs:  e.Start.Millis(),
		TotalUs:  e.Total.Micros(),
		TopPhase: e.TopPhase().String(),
		Flags:    e.FlagNames(),
		Phases:   []PhaseUs{},
	}
	for p := 0; p < telemetry.NumPhases; p++ {
		if e.Phases[p] != 0 {
			d.Phases = append(d.Phases, PhaseUs{Name: telemetry.Phase(p).String(), Us: e.Phases[p].Micros()})
		}
	}
	for t := 0; t < telemetry.MaxTenants; t++ {
		if e.Blame[t] != 0 {
			d.Blame = append(d.Blame, BlameUs{Tenant: tenantLabel(telemetry.TenantID(t), name), Us: e.Blame[t].Micros()})
		}
	}
	if e.PathOK {
		for w := 0; w < critpath.NumWaits; w++ {
			for b := 0; b < critpath.NumBinds; b++ {
				if v := e.Path.WaitBy[w][b]; v != 0 {
					d.WaitedOn = append(d.WaitedOn, WaitedDump{
						Phase: waitPhases[w].String(), Behind: bindNames[b], Us: v.Micros(),
					})
				}
			}
		}
	}
	if e.Snap.Captured {
		d.Device = e.Snap.String()
	}
	return d
}

func tenantLabel(t telemetry.TenantID, name func(telemetry.TenantID) string) string {
	if name != nil {
		return name(t)
	}
	if t == 0 {
		return "sys"
	}
	return fmt.Sprintf("t%d", t)
}

// Dump converts the snapshot to its JSON shape: the overall worst
// exemplars (merged across tenants) plus the flagged ring.
func (s Snapshot) Dump(name func(telemetry.TenantID) string) Dump {
	d := Dump{Schema: DumpSchema, IOs: s.IOs, K: s.K, Worst: []ExemplarDump{}, FlagSeen: s.FlagSeen}
	for _, e := range s.TopK(0) {
		d.Worst = append(d.Worst, DumpOne(e, name))
	}
	for _, e := range s.Flagged {
		d.Flagged = append(d.Flagged, DumpOne(e, name))
	}
	return d
}

// BenchSummary is the -bench-json exemplar block: enough numeric columns
// for benchdiff to pin the exemplar layer (worst latencies and capture
// counts) against the committed BENCH_baseline.json.
type BenchSummary struct {
	IOs          uint64  `json:"ios"`
	Captured     int     `json:"captured"`
	Flagged      uint64  `json:"flagged"`
	WorstReadUs  float64 `json:"worst_read_us"`
	WorstWriteUs float64 `json:"worst_write_us"`
	SumTopUs     float64 `json:"sum_top_us"`
}

// Bench summarizes the snapshot for -bench-json (nil when the snapshot is
// empty, so entries predating exemplar capture compare as "no baseline").
func (s Snapshot) Bench() *BenchSummary {
	if s.IOs == 0 {
		return nil
	}
	b := &BenchSummary{IOs: s.IOs, Captured: s.Captured(), Flagged: s.FlagSeen}
	for _, e := range s.TopK(0) {
		b.SumTopUs += e.Total.Micros()
		switch e.Op {
		case telemetry.OpRead:
			if us := e.Total.Micros(); us > b.WorstReadUs {
				b.WorstReadUs = us
			}
		case telemetry.OpWrite:
			if us := e.Total.Micros(); us > b.WorstWriteUs {
				b.WorstWriteUs = us
			}
		}
	}
	return b
}
