// Package core is the experiment harness: it defines one runnable
// experiment per table, figure, or quantitative claim in the paper (E1-E12,
// plus ablations), drives the device models under the workloads those
// claims describe, and renders paper-style report tables.
//
// Every experiment is deterministic: rerunning with the same Config
// reproduces the same report bit-for-bit.
package core

import (
	"fmt"
	"sort"
	"strings"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
	"blockhead/internal/zns"
)

// Config parameterizes an experiment run.
type Config struct {
	// Quick shrinks sweeps and run lengths for tests and smoke runs;
	// full runs are used by cmd/znsbench and the benchmarks.
	Quick bool
	// Seed drives all workload randomness.
	Seed int64
	// Probe, when non-nil, is attached to the device models of the
	// experiments that support cross-layer telemetry (E2, E8, ...); the
	// caller exports its metrics and trace after the run. A nil probe is
	// the zero-overhead default.
	Probe *telemetry.Probe
	// FaultProfile names the fault.Profile driven by the experiments that
	// model NAND failures and power loss (E13). Empty selects each
	// experiment's own default; "none" disables injection entirely.
	FaultProfile string
	// Scenario, when non-nil, runs the experiments under counterfactual
	// phase scalings (znsbench -whatif): service-phase factors scale the
	// flash timing parameters, zone_reset additionally scales erase cost
	// on zoned stacks, and wp_serial scales the write-pointer
	// serialization the ZNS device exposes to the host. These runs are
	// the ground truth the what-if engine's predictions are validated
	// against (make whatif-campaign).
	Scenario *critpath.Scenario
	// Shards is the worker count for experiments built from independent
	// sub-simulations ("parts": one device stack + workload + telemetry
	// session each). Parts run on an internal/sim/pool of min(N, parts)
	// workers (0 counts as 1) and their results merge in part order; a
	// seeded run's report is byte-identical at any value
	// (TestShardEquivalence is the gate).
	// Probe and explain runs run parts in order on one shared session
	// instead: both hang live state (metric registries, the narrator) off
	// one shared sink.
	Shards int
	// ExplainSeq, when nonzero, arms per-IO forensics (znsbench -explain):
	// instead of the critpath recorder and exemplar reservoir, the session
	// sink carries a narrator that records the measured IO with this
	// sequence number tick by tick. Drive it through Explain, which
	// retrieves the transcript after the run.
	ExplainSeq uint64

	// session carries per-run state shared across an experiment's stacks
	// (the attribution sink that numbers measured IOs, the narrator in
	// explain mode). register installs a fresh one per Run call, so IO
	// sequence numbers are stable per (experiment, seed) — the identity
	// `-explain <exp>:<seq>` replays.
	session *session
}

// DefaultConfig is the standard full-size run.
func DefaultConfig() Config { return Config{Seed: 42} }

// attrProbe returns a probe carrying the session's shared attribution sink,
// heatmap-source registry, flight recorder, and live publisher when
// cfg.Probe is set, or private instances otherwise. Experiments that drive
// several device stacks attach one of these to each stack instead of the
// full cfg.Probe: sharing the metric registry would let the stacks
// overwrite each other's gauges (flash/chan/N/util etc.), while the
// attribution sink, heat set (replace-by-name), and flight recorder are
// designed to be shared. The flight recorder is always present — even
// without cfg.Probe — so auditor and attribution violations inside
// experiments dump recent history.
func attrProbe(cfg Config) *telemetry.Probe {
	sink := cfg.Probe.Attribution()
	if sink == nil {
		// Share one sink across the experiment's stacks (via the per-run
		// session) so measured-IO sequence numbers are unique within the
		// run — the identity `-explain <exp>:<seq>` depends on it. The
		// aggregates tolerate sharing: experiments snapshot-delta around
		// their measured windows, exactly as in the cfg.Probe (live
		// dashboard) configuration.
		if cfg.session != nil {
			if cfg.session.sink == nil {
				cfg.session.sink = telemetry.NewAttrSink()
			}
			sink = cfg.session.sink
		} else {
			sink = telemetry.NewAttrSink()
		}
	}
	p := &telemetry.Probe{Attr: sink, HeatSrc: cfg.Probe.Heat(), FlightRec: cfg.Probe.Flight()}
	if p.FlightRec == nil {
		p.FlightRec = telemetry.NewFlight(0)
	}
	if sink.OnViolation == nil {
		fl := p.FlightRec
		sink.OnViolation = func(at sim.Time) {
			fl.Violation(at, telemetry.FlightAttrViolation, -1, "attribution_invariant", 0)
		}
	}
	if cfg.Probe != nil {
		p.Pub = cfg.Probe.Pub
	}
	// Arm the per-IO layers once per sink. Explain mode installs a
	// narrator as both the path and exemplar sink (the critpath recorder
	// and reservoir step aside; their report sections skip empty
	// snapshots gracefully). Otherwise: the critical-path recorder —
	// every experiment that attributes latency also records per-IO
	// critical paths (same charge feed, same exact-sum contract) — plus
	// the exemplar reservoir reading completed paths out of it.
	// Experiments drain both around their measured windows.
	if cfg.ExplainSeq != 0 && cfg.session != nil {
		if cfg.session.narrator == nil {
			cfg.session.narrator = exemplar.NewNarrator(cfg.ExplainSeq)
		}
		if sink.Path == nil {
			sink.Path = cfg.session.narrator
			sink.Exem = cfg.session.narrator
		}
	} else {
		if sink.Path == nil {
			critpath.Attach(sink, critpath.Options{})
		}
		if sink.Exem == nil {
			exemplar.Attach(sink, exemplar.Options{})
		}
	}
	return p
}

// Report is one experiment's rendered result.
type Report struct {
	ID         string
	Title      string
	PaperClaim string // what the paper says we should see
	Header     []string
	Rows       [][]string
	Notes      []string
	// Breakdowns are per-configuration latency-attribution sections,
	// rendered between the table and the notes.
	Breakdowns []Breakdown
	// Devices are per-configuration device-state sections (wear summary,
	// zone-state census, audit result), rendered after the breakdowns.
	Devices []DeviceState
	// Tenants are per-configuration per-tenant sections: per-tenant latency
	// and stall totals, the victim×culprit blame matrix with its exact
	// reconciliation, and SLO verdicts. Rendered after the device states.
	Tenants []TenantSection
	// Crit are per-configuration critical-path sections: phases ranked by
	// critical-path ticks (path vs total columns) and the what-if
	// predictions. Rendered after the attribution breakdowns.
	Crit []CritSection
	// Exemplars are per-configuration "slowest IOs" sections: the worst-K
	// tail exemplars with their exact phase timelines, blame, device
	// snapshots, and per-IO best counterfactual. Rendered after the
	// critical-path sections.
	Exemplars []ExemplarSection
	// Bench are the machine-readable results (znsbench -bench-json).
	Bench []BenchEntry
}

// Breakdown is one configuration's per-phase latency decomposition.
type Breakdown struct {
	Name string
	Attr telemetry.AttrDump
}

// DeviceState is one configuration's end-of-run device snapshot: flash wear
// plus, for zoned stacks, the zone-state census and the state-machine audit
// verdict.
type DeviceState struct {
	Name            string
	Wear            flash.WearSummary
	ZoneMap         string // zone census ("" for non-zoned stacks)
	Audited         bool
	AuditViolations uint64
}

// AddDeviceState appends a device-state section.
func (r *Report) AddDeviceState(ds DeviceState) {
	r.Devices = append(r.Devices, ds)
}

// deviceState snapshots a zoned stack: wear from the chip, census and audit
// verdict from the device/auditor.
func deviceState(name string, dev *zns.Device, aud *zns.Auditor) DeviceState {
	return DeviceState{
		Name:            name,
		Wear:            dev.Flash().Wear(),
		ZoneMap:         dev.StateCensus().String(),
		Audited:         aud != nil,
		AuditViolations: aud.Violations(),
	}
}

// TenantSection is one configuration's per-tenant observability block.
type TenantSection struct {
	Name string
	Snap telemetry.TenantSnapshot
	SLO  []telemetry.SLOResult
}

// AddTenants appends a per-tenant section. Snapshots with no active tenants
// are skipped, so single-tenant experiments render unchanged.
func (r *Report) AddTenants(name string, snap telemetry.TenantSnapshot, slo []telemetry.SLOResult) {
	for t := telemetry.TenantID(0); t < telemetry.MaxTenants; t++ {
		if snap.Active(t) {
			r.Tenants = append(r.Tenants, TenantSection{Name: name, Snap: snap, SLO: slo})
			return
		}
	}
}

// BenchEntry is one machine-readable benchmark result, the schema committed
// as BENCH_*.json to track the perf trajectory across PRs.
type BenchEntry struct {
	Experiment  string             `json:"experiment"`
	Name        string             `json:"name"`
	WritePPS    float64            `json:"write_pages_per_sec"`
	WriteAmp    float64            `json:"write_amp,omitempty"`
	ReadMeanUs  float64            `json:"read_mean_us"`
	ReadP50Us   float64            `json:"read_p50_us"`
	ReadP90Us   float64            `json:"read_p90_us"`
	ReadP99Us   float64            `json:"read_p99_us"`
	ReadP999Us  float64            `json:"read_p999_us"`
	WriteP99Us  float64            `json:"write_p99_us"`
	Attribution telemetry.AttrDump `json:"attribution"`
	// CritPath carries the critical-path invariant counters, top path
	// phase, and canonical what-if ratios (znsbench -bench-json; gated by
	// benchdiff at 0.1% like every other metric).
	CritPath *critpath.BenchSummary `json:"critpath,omitempty"`
	// Exemplars carries the exemplar reservoir's capture counts and worst
	// latencies (gated at 0.1% against BENCH_baseline.json).
	Exemplars *exemplar.BenchSummary `json:"exemplars,omitempty"`
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a free-form note line.
func (r *Report) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// AddBreakdown appends a latency-attribution section for one configuration.
// Snapshots with no completed IOs are skipped.
func (r *Report) AddBreakdown(name string, snap telemetry.AttrSnapshot) {
	d := snap.Dump()
	if len(d.Ops) == 0 {
		return
	}
	r.Breakdowns = append(r.Breakdowns, Breakdown{Name: name, Attr: d})
}

// Format renders the report as an aligned text table.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	line(dashes(widths))
	for _, row := range r.Rows {
		line(row)
	}
	for _, bd := range r.Breakdowns {
		// The attribution table is critical-path ticks by construction
		// (suspended charges never land); the critical-path section below
		// adds the off-path ("total") view of the same phases.
		fmt.Fprintf(&b, "latency attribution — %s (critical-path ticks):\n", bd.Name)
		for _, op := range []string{"read", "write"} {
			od, ok := bd.Attr.Ops[op]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-5s n=%d mean=%.1fus p50=%.1fus p99=%.1fus p999=%.1fus\n",
				op, od.Count, od.MeanUs, od.P50Us, od.P99Us, od.P999Us)
			for _, ph := range od.Phases {
				fmt.Fprintf(&b, "    %-12s mean=%8.1fus (%5.1f%%)  p99=%8.1fus  p999=%8.1fus\n",
					ph.Name, ph.MeanUs, ph.Frac*100, ph.P99Us, ph.P999Us)
			}
		}
		if bd.Attr.Violations > 0 {
			fmt.Fprintf(&b, "  WARNING: %d attribution invariant violations\n", bd.Attr.Violations)
		}
	}
	for _, cs := range r.Crit {
		formatCritSection(&b, cs)
	}
	for _, es := range r.Exemplars {
		formatExemplarSection(&b, es)
	}
	for _, ds := range r.Devices {
		fmt.Fprintf(&b, "device state — %s: wear blocks=%d bad=%d erases=%d max=%d mean=%.2f spread=%d skew=%.2f\n",
			ds.Name, ds.Wear.Blocks, ds.Wear.BadBlocks, ds.Wear.TotalErases,
			ds.Wear.MaxErase, ds.Wear.MeanErase, ds.Wear.Spread, ds.Wear.Skew)
		if ds.ZoneMap != "" {
			fmt.Fprintf(&b, "  zone map: %s\n", ds.ZoneMap)
		}
		if ds.Audited {
			if ds.AuditViolations > 0 {
				fmt.Fprintf(&b, "  WARNING: %d zone state-machine audit violations\n", ds.AuditViolations)
			} else {
				fmt.Fprintf(&b, "  zone state-machine audit: clean\n")
			}
		}
	}
	for _, ts := range r.Tenants {
		formatTenantSection(&b, ts)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// formatTenantSection renders one configuration's per-tenant block: the
// per-tenant/op latency and stall lines, the victim×culprit blame matrix,
// the exact blame-conservation reconciliation, and the SLO verdicts.
func formatTenantSection(b *strings.Builder, ts TenantSection) {
	fmt.Fprintf(b, "tenant breakdown — %s:\n", ts.Name)
	var active []telemetry.TenantID
	for t := telemetry.TenantID(0); t < telemetry.MaxTenants; t++ {
		if ts.Snap.Active(t) {
			active = append(active, t)
		}
	}
	for _, t := range active {
		for k := telemetry.OpKind(0); int(k) < telemetry.NumOps; k++ {
			oa := ts.Snap.Tenants[t].Ops[k]
			if oa.Count == 0 {
				continue
			}
			fmt.Fprintf(b, "  %-10s %-5s n=%-8d mean=%8.1fus p50=%8.1fus p99=%8.1fus stall=%8.1fus\n",
				ts.Snap.Name(t), k.String(), oa.Count,
				(sim.Time(float64(oa.TotalSum) / float64(oa.Count))).Micros(),
				oa.Total.Percentile(50).Micros(), oa.Total.Percentile(99).Micros(),
				oa.StallSum().Micros())
		}
	}
	fmt.Fprintf(b, "  blame matrix (stall us; victim rows × culprit cols):\n")
	fmt.Fprintf(b, "    %-10s", "")
	for _, c := range active {
		fmt.Fprintf(b, " %10s", ts.Snap.Name(c))
	}
	fmt.Fprintf(b, " | %10s\n", "suffered")
	var blameTot, stallTot sim.Time
	for _, v := range active {
		fmt.Fprintf(b, "    %-10s", ts.Snap.Name(v))
		for _, c := range active {
			fmt.Fprintf(b, " %10.1f", ts.Snap.Blame[v][c].Micros())
		}
		fmt.Fprintf(b, " | %10.1f\n", ts.Snap.SufferedNs(v).Micros())
		blameTot += ts.Snap.SufferedNs(v)
		stallTot += ts.Snap.StallNs(v)
	}
	fmt.Fprintf(b, "    %-10s", "blamed")
	for _, c := range active {
		fmt.Fprintf(b, " %10.1f", ts.Snap.BlamedNs(c).Micros())
	}
	fmt.Fprintf(b, " |\n")
	if reconciled := blameTot == stallTot && tenantRowsReconcile(ts.Snap, active); reconciled {
		fmt.Fprintf(b, "  blame conservation: sum(blame)=%dns == sum(stalls)=%dns (exact)\n",
			int64(blameTot), int64(stallTot))
	} else {
		fmt.Fprintf(b, "  WARNING: blame conservation broken: sum(blame)=%dns sum(stalls)=%dns\n",
			int64(blameTot), int64(stallTot))
	}
	for _, res := range ts.SLO {
		fmt.Fprintf(b, "  slo: %s\n", formatSLOResult(ts.Snap, res))
	}
}

// tenantRowsReconcile checks the per-victim conservation: each tenant's
// blame-matrix row sum equals its own stall-phase total exactly.
func tenantRowsReconcile(snap telemetry.TenantSnapshot, active []telemetry.TenantID) bool {
	for _, v := range active {
		if snap.SufferedNs(v) != snap.StallNs(v) {
			return false
		}
	}
	return true
}

// formatSLOResult renders one SLO verdict line.
func formatSLOResult(snap telemetry.TenantSnapshot, res telemetry.SLOResult) string {
	var obj []string
	if res.SLO.LatencyMax > 0 {
		obj = append(obj, fmt.Sprintf("p%g<=%.0fus", res.SLO.Pct, res.SLO.LatencyMax.Micros()))
	}
	if res.SLO.MinRate > 0 {
		obj = append(obj, fmt.Sprintf("rate>=%.0f/s", res.SLO.MinRate))
	}
	verdict := "PASS"
	if !res.OK {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%-10s %-5s %-24s %s (burn=%.2f, %d/%d windows violated, worst p%g=%.1fus, worst rate=%.0f/s)",
		snap.Name(res.SLO.Tenant), res.SLO.Op.String(), strings.Join(obj, " "),
		verdict, res.BurnRate, res.Violated, res.Windows,
		res.SLO.Pct, res.WorstUs, res.WorstRate)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Experiment is one reproducible table/figure/claim from the paper.
type Experiment struct {
	ID         string
	Title      string
	PaperClaim string
	Run        func(cfg Config) (Report, error)
}

var registry []Experiment

// register adds an experiment, wrapping its Run so every invocation gets a
// fresh per-run session (unless the caller already provided one — Explain
// does, to retrieve the narrator afterwards). The session scopes measured-IO
// sequence numbers to one (experiment, seed) run.
func register(e Experiment) {
	run := e.Run
	e.Run = func(cfg Config) (Report, error) {
		if cfg.session == nil {
			cfg.session = newSession()
		}
		return run(cfg)
	}
	registry = append(registry, e)
}

// All returns every registered experiment in numeric ID order (E1..E12,
// then ablations).
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return idKey(out[i].ID) < idKey(out[j].ID) })
	return out
}

// idKey pads the numeric suffix so E2 sorts before E10, and ranks the
// paper experiments (E*) ahead of the ablations (A*).
func idKey(id string) string {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	rank := "1"
	if len(id) > 0 && (id[0] == 'E' || id[0] == 'e') {
		rank = "0"
	}
	return fmt.Sprintf("%s%s%06s", rank, id[:i], id[i:])
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
