package telemetry

import (
	"fmt"
	"io"
	"os"

	"blockhead/internal/sim"
)

// FlightKind classifies one flight-recorder event. The recorder keeps the
// recent history of exactly the events a post-mortem needs: zone
// state-machine activity, reclamation decisions, erases, and the violations
// that trigger an automatic dump.
type FlightKind uint8

const (
	// FlightTransition is a zone state-machine transition (zns).
	FlightTransition FlightKind = iota
	// FlightReset is a completed zone reset (zns).
	FlightReset
	// FlightErase is a block erase, including endurance failures (flash).
	FlightErase
	// FlightWPConflict is a rejected write that missed the write pointer (zns).
	FlightWPConflict
	// FlightGCVictim is a device-side GC victim selection (ftl).
	FlightGCVictim
	// FlightReclaim is a host-side reclamation victim (hostftl).
	FlightReclaim
	// FlightAuditViolation is a zone state-machine auditor violation.
	FlightAuditViolation
	// FlightAttrViolation is a latency-attribution invariant violation.
	FlightAttrViolation
	// FlightFault is an injected media fault (flash): an uncorrectable read,
	// a failed program, or a failed erase.
	FlightFault
	// FlightCrash is a power-loss event (flash.CrashAt).
	FlightCrash
	// FlightRecover is a completed crash recovery (ftl/zns/hostftl).
	FlightRecover

	numFlightKinds = int(FlightRecover) + 1
)

var flightKindNames = [numFlightKinds]string{
	"transition",
	"reset",
	"erase",
	"wp_conflict",
	"gc_victim",
	"reclaim",
	"audit_violation",
	"attr_violation",
	"fault",
	"crash",
	"recover",
}

// String returns the kind's stable wire name.
func (k FlightKind) String() string {
	if int(k) >= numFlightKinds {
		return "unknown"
	}
	return flightKindNames[k]
}

// FlightEvent is one recorded event. Unit is the zone or block the event is
// about (-1 when not applicable); Detail is a static, preallocated label
// (e.g. "empty->open"); Arg is a kind-specific integer (write pointer,
// erase count, valid pages, ...).
type FlightEvent struct {
	At     sim.Time
	Kind   FlightKind
	Unit   int32
	Detail string
	Arg    int64
}

// DefaultFlightEvents is the default ring capacity.
const DefaultFlightEvents = 1024

// flightMaxAutoDumps caps how many automatic violation dumps one recorder
// writes, so a violation storm cannot flood the output.
const flightMaxAutoDumps = 3

// Flight is a bounded ring of recent device events — a flight recorder.
// Recording is allocation-free and the nil *Flight is a valid no-op on
// every method, so device models record unconditionally on their hot paths.
//
// On a Violation the recorder dumps its contents (text) to DumpTo
// automatically, at most flightMaxAutoDumps times; on-demand dumps go
// through WriteText (text) and Dump (JSON).
type Flight struct {
	ring  []FlightEvent
	next  int
	total uint64

	violations uint64
	autoDumps  int

	// DumpTo receives the automatic text dump written when a Violation is
	// recorded. NewFlight sets it to os.Stderr; tests redirect it, and nil
	// disables automatic dumps entirely.
	DumpTo io.Writer
}

// NewFlight returns a recorder with the given ring capacity
// (DefaultFlightEvents if n <= 0), auto-dumping to os.Stderr.
func NewFlight(n int) *Flight {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	return &Flight{ring: make([]FlightEvent, n), DumpTo: os.Stderr}
}

// Record appends one event, overwriting the oldest once the ring is full.
// No-op on a nil recorder; never allocates.
func (f *Flight) Record(at sim.Time, kind FlightKind, unit int32, detail string, arg int64) {
	if f == nil {
		return
	}
	f.ring[f.next] = FlightEvent{At: at, Kind: kind, Unit: unit, Detail: detail, Arg: arg}
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
	}
	f.total++
}

// Violation records an event and triggers the automatic dump: the recorder's
// whole ring is written to DumpTo (at most flightMaxAutoDumps times per
// recorder) with the violating event as the last entry. The dump path may
// allocate; violations are exceptional by contract.
func (f *Flight) Violation(at sim.Time, kind FlightKind, unit int32, detail string, arg int64) {
	if f == nil {
		return
	}
	f.Record(at, kind, unit, detail, arg)
	f.violations++
	if f.DumpTo == nil || f.autoDumps >= flightMaxAutoDumps {
		return
	}
	f.autoDumps++
	fmt.Fprintf(f.DumpTo, "flight recorder: %s at %.3fms (unit %d %s): dumping last %d events\n",
		kind, at.Millis(), unit, detail, f.Len())
	f.WriteText(f.DumpTo) //nolint:errcheck // best-effort diagnostic output
}

// Len reports how many events the ring currently holds.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	if f.total < uint64(len(f.ring)) {
		return int(f.total)
	}
	return len(f.ring)
}

// Total reports how many events were ever recorded (including overwritten).
func (f *Flight) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.total
}

// Dropped reports how many events were overwritten by newer ones.
func (f *Flight) Dropped() uint64 {
	if f == nil {
		return 0
	}
	return f.total - uint64(f.Len())
}

// Violations reports how many violation events were recorded.
func (f *Flight) Violations() uint64 {
	if f == nil {
		return 0
	}
	return f.violations
}

// Events returns the recorded events, oldest first. Nil-safe (empty slice).
func (f *Flight) Events() []FlightEvent {
	if f == nil {
		return []FlightEvent{}
	}
	out := make([]FlightEvent, 0, f.Len())
	if f.total >= uint64(len(f.ring)) {
		out = append(out, f.ring[f.next:]...)
	}
	out = append(out, f.ring[:f.next]...)
	return out
}

// WriteText writes a human-readable dump, oldest event first.
func (f *Flight) WriteText(w io.Writer) error {
	if f == nil {
		_, err := fmt.Fprintf(w, "flight recorder: 0 events (0 recorded, 0 dropped, 0 violations)\n")
		return err
	}
	events := f.Events()
	if _, err := fmt.Fprintf(w, "flight recorder: %d events (%d recorded, %d dropped, %d violations)\n",
		len(events), f.Total(), f.Dropped(), f.Violations()); err != nil {
		return err
	}
	for _, ev := range events {
		if _, err := fmt.Fprintf(w, "  %12.3fms  %-15s unit=%-6d arg=%-8d %s\n",
			ev.At.Millis(), ev.Kind, ev.Unit, ev.Arg, ev.Detail); err != nil {
			return err
		}
	}
	return nil
}

// FlightDump is the JSON shape of a flight-recorder export (/flight.json).
type FlightDump struct {
	Total      uint64            `json:"total"`
	Dropped    uint64            `json:"dropped"`
	Violations uint64            `json:"violations"`
	Events     []FlightEventDump `json:"events"`
}

// FlightEventDump is one event of a flight-recorder export.
type FlightEventDump struct {
	AtMillis float64 `json:"at_ms"`
	Kind     string  `json:"kind"`
	Unit     int32   `json:"unit"`
	Detail   string  `json:"detail,omitempty"`
	Arg      int64   `json:"arg"`
}

// Dump converts the recorder's contents to their JSON shape. Safe on a nil
// recorder (empty dump).
func (f *Flight) Dump() FlightDump {
	if f == nil {
		return FlightDump{Events: []FlightEventDump{}}
	}
	events := f.Events()
	d := FlightDump{
		Total:      f.Total(),
		Dropped:    f.Dropped(),
		Violations: f.Violations(),
		Events:     make([]FlightEventDump, len(events)),
	}
	for i, ev := range events {
		d.Events[i] = FlightEventDump{
			AtMillis: ev.At.Millis(),
			Kind:     ev.Kind.String(),
			Unit:     ev.Unit,
			Detail:   ev.Detail,
			Arg:      ev.Arg,
		}
	}
	return d
}
