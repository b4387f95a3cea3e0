package main

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/zns"
)

// churnOp is one generated page operation on a uniformly random logical
// page. key is scaled onto each stack's capacity, so conv-churn and
// zns-churn replay the same stream.
type churnOp struct {
	key  uint64
	read bool
}

// churnReadPct is the share of reads in the measured stream: enough that a
// write-path gain bought with read-path cost shows in run_s.
const churnReadPct = 20

// digestRounds is how many measured rounds every run completes and the
// output digest covers.
const digestRounds = 3

// Round and set-up sizes. A full round is about one capacity's worth of
// page operations; rounds are generated ahead and replayed cyclically.
type churnSize struct {
	opsPerRound, pool, ageMultiple int
}

func churnSizeFor(small bool) churnSize {
	if small {
		return churnSize{opsPerRound: 2000, pool: 2, ageMultiple: 1}
	}
	return churnSize{opsPerRound: 32768, pool: 4, ageMultiple: 2}
}

// churnGeometry is E2's array: 4 LUNs of 128 blocks of 64 4-KiB pages.
func churnGeometry() flash.Geometry {
	return flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 128, PagesPerBlock: 64, PageSize: 4096}
}

// pageStack is the translation layer a churn workload drives.
type pageStack interface {
	capacity() int64
	// write reports whether reclamation ran during the call.
	write(at sim.Time, lpn int64) (done sim.Time, reclaimed bool, err error)
	read(at sim.Time, lpn int64) (sim.Time, error)
	counters() map[string]uint64
	chip() *flash.Device
	check(v *invariants, d map[string]uint64, writes, reads uint64)
	layers(m map[string]float64, d map[string]uint64, r float64, tr *tracer)
}

// churn is a closed-loop, single-client page workload in virtual time:
// each operation is issued when the previous one completes, by direct
// calls with no event loop.
type churn struct {
	layer string // span and metric prefix: "ftl" or "hostftl"
	st    pageStack
	// maintain, when set, runs paced host maintenance after every second
	// write (the zoned stack's reclamation stream, as in E6).
	maintain func(at sim.Time)

	ops    [][]churnOp
	next   int
	at     sim.Time
	pages  int64 // the stack's logical capacity
	rounds int

	wlat, rlat    []sim.Time
	writes, reads uint64
	err           error

	dg             digest
	before, mark   map[string]uint64
	markAt         sim.Time
	sRound, sWrite int32
	sRead, sMaint  int32
}

// genChurn generates the set-up ageing writes and the measured rounds.
func genChurn(seed int64, sz churnSize, capacity int64) (age []uint64, rounds [][]churnOp) {
	r := newRNG(seed)
	age = make([]uint64, capacity*int64(sz.ageMultiple))
	for i := range age {
		age[i] = r.next()
	}
	rounds = make([][]churnOp, sz.pool)
	for i := range rounds {
		rounds[i] = make([]churnOp, sz.opsPerRound)
		for j := range rounds[i] {
			rounds[i][j] = churnOp{key: r.next(), read: r.below(100) < churnReadPct}
		}
	}
	return age, rounds
}

// newChurn fills the stack sequentially and ages it with random overwrites
// to steady state, so the measured rounds see steady-state reclamation.
func newChurn(seed int64, small bool, tr *tracer, layer string, st pageStack, maintain func(sim.Time)) (*churn, error) {
	sz := churnSizeFor(small)
	c := &churn{layer: layer, st: st, maintain: maintain, pages: st.capacity(),
		sRound: tr.id("round"), sWrite: tr.id(layer + ".write"),
		sRead: tr.id(layer + ".read"), sMaint: tr.id(layer + ".maint")}
	var age []uint64
	age, c.ops = genChurn(seed, sz, c.pages)
	for lpn := int64(0); lpn < c.pages; lpn++ {
		done, _, err := st.write(c.at, lpn)
		if err != nil {
			return nil, fmt.Errorf("%s fill: %w", layer, err)
		}
		c.at = max(c.at, done)
	}
	for i, k := range age {
		done, _, err := st.write(c.at, scale(k, c.pages))
		if err != nil {
			return nil, fmt.Errorf("%s ageing: %w", layer, err)
		}
		c.at = max(c.at, done)
		if maintain != nil && i%2 == 1 {
			maintain(c.at)
		}
	}
	c.wlat = make([]sim.Time, 0, sz.opsPerRound)
	c.rlat = make([]sim.Time, 0, sz.opsPerRound)
	c.before = st.counters()
	c.dg.addCounters("setup", c.before)
	c.dg.add("setup at=%d", c.at)
	return c, nil
}

func (c *churn) round(tr *tracer) int {
	ops := c.ops[c.next%len(c.ops)]
	c.next++
	c.wlat, c.rlat = c.wlat[:0], c.rlat[:0]
	c.writes, c.reads = 0, 0
	root := tr.begin(c.sRound)
	at := c.at
	for i := range ops {
		o := &ops[i]
		lpn := scale(o.key, c.pages)
		var done sim.Time
		var err error
		if o.read {
			s := tr.beginIO(c.sRead)
			done, err = c.st.read(at, lpn)
			tr.end(s)
			c.rlat = append(c.rlat, done-at)
			c.reads++
		} else {
			s := tr.beginIO(c.sWrite)
			var reclaimed bool
			done, reclaimed, err = c.st.write(at, lpn)
			tr.endFlag(s, reclaimed)
			c.wlat = append(c.wlat, done-at)
			c.writes++
		}
		if err != nil {
			c.err = err
			break
		}
		at = max(at, done)
		if c.maintain != nil && !o.read && c.writes%2 == 0 {
			s := tr.begin(c.sMaint)
			c.maintain(at)
			tr.end(s)
		}
	}
	tr.end(root)
	c.at = at
	return int(c.writes + c.reads)
}

func (c *churn) check() int {
	now := c.st.counters()
	d := delta(now, c.before)
	c.before = now
	var v invariants
	if c.err != nil {
		v.fail("%s: %v", c.layer, c.err)
	}
	for _, lat := range [][]sim.Time{c.wlat, c.rlat} {
		for _, l := range lat {
			if l <= 0 {
				v.fail("%s: non-positive latency %d", c.layer, l)
				break
			}
		}
	}
	v.eq("chip programs == flash programs", d["chip_programs"], d["flash_programs"])
	v.eq("chip reads == flash reads", d["chip_reads"], d["flash_reads"])
	v.eq("chip erases == block erases", d["chip_erases"], d["erases"])
	c.st.check(&v, d, c.writes, c.reads)
	if c.rounds < digestRounds {
		c.dg.addCounters(fmt.Sprintf("round %d", c.rounds), now)
		c.dg.addLatency("write", c.wlat)
		c.dg.addLatency("read", c.rlat)
		c.dg.add("at=%d", c.at)
	}
	c.rounds++
	for _, b := range v.broken {
		fmt.Printf("check failed: %s\n", b)
	}
	return len(v.broken)
}

func (c *churn) digest() string {
	if c.rounds < digestRounds {
		return ""
	}
	return c.dg.sum()
}

func (c *churn) markLayers() { c.mark, c.markAt = c.st.counters(), c.at }

func (c *churn) layers(tr *tracer, rounds int) map[string]float64 {
	d := delta(c.st.counters(), c.mark)
	r := float64(rounds)
	m := map[string]float64{}
	w, rd := tr.stat(c.layer+".write"), tr.stat(c.layer+".read")
	m[c.layer+".write_calls"] = float64(w.calls) / r
	m[c.layer+".write_ms"] = ms(w.ns) / r
	m[c.layer+".read_calls"] = float64(rd.calls) / r
	m[c.layer+".read_ms"] = ms(rd.ns) / r
	m[c.layer+".sim_wa"] = ratio(d["flash_programs"], d["host_writes"])
	m["flash.reads"] = float64(d["chip_reads"]) / r
	m["flash.programs"] = float64(d["chip_programs"]) / r
	m["flash.erases"] = float64(d["chip_erases"]) / r
	luns := c.st.chip().Geom.LUNs()
	if span := c.at - c.markAt; span > 0 {
		m["flash.lun_util"] = float64(d["lun_busy_ns"]) / float64(span) / float64(luns)
	}
	c.st.layers(m, d, r, tr)
	return m
}

func (c *churn) accuracy() []string {
	d := delta(c.st.counters(), c.mark)
	wa := ratio(d["flash_programs"], d["host_writes"])
	if c.layer == "ftl" {
		return []string{fmt.Sprintf("accuracy: ftl.sim_wa=%.2f paper=~15 (conventional FTL, 0%% OP, uniform random writes)", wa)}
	}
	return []string{fmt.Sprintf("accuracy: hostftl.sim_wa=%.2f (no paper reference for this configuration)", wa)}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func lunBusy(d *flash.Device) uint64 {
	var t sim.Time
	for l := 0; l < d.Geom.LUNs(); l++ {
		t += d.LUNBusy(l)
	}
	return uint64(t)
}

// convStack is conv-churn's stack: the conventional FTL at E2's 0%-OP
// calibration.
type convStack struct{ dev *ftl.Device }

func newConvChurn(seed int64, small bool, tr *tracer) (bench, error) {
	dev, err := ftl.New(ftl.Config{
		Geom:              churnGeometry(),
		Lat:               flash.LatenciesFor(flash.TLC),
		ReserveFraction:   0.042,
		OPFraction:        0,
		HotColdSeparation: true,
		TrimSupported:     true,
	})
	if err != nil {
		return nil, err
	}
	return newChurn(seed, small, tr, "ftl", convStack{dev}, nil)
}

func (s convStack) capacity() int64     { return s.dev.CapacityPages() }
func (s convStack) chip() *flash.Device { return s.dev.Flash() }

func (s convStack) write(at sim.Time, lpn int64) (sim.Time, bool, error) {
	runs := s.dev.GCRuns()
	done, err := s.dev.WritePage(at, lpn, nil)
	return done, s.dev.GCRuns() != runs, err
}

func (s convStack) read(at sim.Time, lpn int64) (sim.Time, error) {
	done, _, err := s.dev.ReadPage(at, lpn)
	return done, err
}

func (s convStack) counters() map[string]uint64 {
	c := s.dev.Counters()
	k := s.dev.Flash().Counts()
	return map[string]uint64{
		"host_writes": c.HostWritePages, "host_reads": c.HostReadPages,
		"flash_programs": c.FlashProgramPages, "flash_reads": c.FlashReadPages,
		"erases": c.BlockErases, "gc_copies": c.GCCopyPages, "pcie_bytes": c.PCIeBytes,
		"gc_runs":    s.dev.GCRuns(),
		"chip_reads": k.Reads, "chip_programs": k.Programs, "chip_erases": k.Erases,
		"lun_busy_ns": lunBusy(s.dev.Flash()),
	}
}

func (s convStack) check(v *invariants, d map[string]uint64, writes, reads uint64) {
	v.eq("ftl host writes == writes issued", d["host_writes"], writes)
	v.eq("ftl host reads == reads issued", d["host_reads"], reads)
	v.eq("ftl programs == host writes + GC copies", d["flash_programs"], d["host_writes"]+d["gc_copies"])
	v.eq("ftl flash reads == host reads + GC copies", d["flash_reads"], d["host_reads"]+d["gc_copies"])
	v.le("ftl erases <= GC runs", d["erases"], d["gc_runs"])
	v.eq("ftl PCIe bytes == host pages x page size", d["pcie_bytes"], (writes+reads)*uint64(s.dev.PageSize()))
}

func (s convStack) layers(m map[string]float64, d map[string]uint64, r float64, tr *tracer) {
	w := tr.stat("ftl.write")
	m["ftl.gc_write_calls"] = float64(w.flagCalls) / r
	m["ftl.gc_write_ms"] = ms(w.flagNS) / r
	m["ftl.gc_runs"] = float64(d["gc_runs"]) / r
	m["ftl.gc_copy_pages"] = float64(d["gc_copies"]) / r
	// The marginal host cost of a GC run: time in GC-running writes beyond
	// what the same number of plain writes take, per run.
	if plain := w.calls - w.flagCalls; plain > 0 && d["gc_runs"] > 0 {
		extra := float64(w.flagNS) - float64(w.flagCalls)*float64(w.ns-w.flagNS)/float64(plain)
		m["ftl.ns_per_gc_run"] = extra / float64(d["gc_runs"])
	}
}

// zonedStack is zns-churn's stack: the host FTL over a ZNS device with
// E6's zoned-side settings on E2's flash array.
type zonedStack struct {
	f   *hostftl.FTL
	dev *zns.Device
}

func newZonedChurn(seed int64, small bool, tr *tracer) (bench, error) {
	dev, err := zns.New(zns.Config{Geom: churnGeometry(),
		Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 1})
	if err != nil {
		return nil, err
	}
	f, err := hostftl.New(dev, hostftl.Config{
		OPFraction:     0.20,
		Streams:        2,
		ZonesPerStream: 4,
		UseSimpleCopy:  true,
		GCMode:         hostftl.GCIncremental,
		GCChunkPages:   8,
	})
	if err != nil {
		return nil, err
	}
	maintain := func(at sim.Time) { f.MaintenanceStep(at, 2, 12) }
	return newChurn(seed, small, tr, "hostftl", zonedStack{f, dev}, maintain)
}

func (s zonedStack) capacity() int64     { return s.f.CapacityPages() }
func (s zonedStack) chip() *flash.Device { return s.dev.Flash() }

func (s zonedStack) write(at sim.Time, lpn int64) (sim.Time, bool, error) {
	resets, evac := s.f.GCResets(), s.f.Evacuations()
	done, err := s.f.Write(at, lpn, nil)
	return done, s.f.GCResets() != resets || s.f.Evacuations() != evac, err
}

func (s zonedStack) read(at sim.Time, lpn int64) (sim.Time, error) {
	done, _, err := s.f.Read(at, lpn)
	return done, err
}

func (s zonedStack) counters() map[string]uint64 {
	c := s.f.Counters()
	k := s.dev.Flash().Counts()
	mapOps, reloc, maint := s.f.WorkStats()
	return map[string]uint64{
		"host_writes": s.f.HostWrites(), "dev_writes": c.HostWritePages, "dev_reads": c.HostReadPages,
		"flash_programs": c.FlashProgramPages, "flash_reads": c.FlashReadPages,
		"erases": c.BlockErases, "gc_copies": c.GCCopyPages, "pcie_bytes": c.PCIeBytes,
		"gc_resets": s.f.GCResets(), "emergencies": s.f.Emergencies(), "evacuations": s.f.Evacuations(),
		"map_ops": mapOps, "reloc_pages": reloc, "maint_ticks": maint,
		"zns_appends": s.dev.Appends(), "zns_resets": s.dev.Resets(),
		"chip_reads": k.Reads, "chip_programs": k.Programs, "chip_erases": k.Erases,
		"lun_busy_ns": lunBusy(s.dev.Flash()),
	}
}

func (s zonedStack) check(v *invariants, d map[string]uint64, writes, reads uint64) {
	v.eq("hostftl host writes == writes issued", d["host_writes"], writes)
	v.eq("zns reads == reads issued", d["dev_reads"], reads)
	v.eq("zns writes == hostftl host writes", d["dev_writes"], d["host_writes"])
	v.eq("zns appends == hostftl host writes", d["zns_appends"], d["host_writes"])
	v.eq("relocated pages == device GC copies", d["reloc_pages"], d["gc_copies"])
	v.eq("programs == host writes + relocations", d["flash_programs"], d["host_writes"]+d["reloc_pages"])
	v.eq("flash reads == host reads + relocations", d["flash_reads"], reads+d["reloc_pages"])
	v.eq("map updates == host writes + relocations + reads", d["map_ops"], d["host_writes"]+d["reloc_pages"]+reads)
	v.eq("erases == zone resets (one block per zone)", d["erases"], d["zns_resets"])
	v.le("hostftl GC resets <= zone resets", d["gc_resets"], d["zns_resets"])
	v.eq("maintenance ticks == writes / 2", d["maint_ticks"], writes/2)
	v.eq("zns PCIe bytes == host pages x page size", d["pcie_bytes"], (writes+reads)*uint64(s.dev.PageSize()))
}

func (s zonedStack) layers(m map[string]float64, d map[string]uint64, r float64, tr *tracer) {
	w := tr.stat("hostftl.write")
	m["hostftl.reclaim_write_calls"] = float64(w.flagCalls) / r
	m["hostftl.reclaim_write_ms"] = ms(w.flagNS) / r
	m["hostftl.gc_resets"] = float64(d["gc_resets"]) / r
	m["hostftl.reloc_pages"] = float64(d["reloc_pages"]) / r
	m["hostftl.map_ops"] = float64(d["map_ops"]) / r
	m["hostftl.maint_ticks"] = float64(d["maint_ticks"]) / r
	m["hostftl.emergencies"] = float64(d["emergencies"]) / r
	m["zns.appends"] = float64(d["zns_appends"]) / r
	m["zns.resets"] = float64(d["zns_resets"]) / r
}
