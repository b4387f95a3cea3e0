package main

import (
	"encoding/binary"
	"fmt"

	"blockhead/internal/core"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/zkv"
	"blockhead/internal/zns"
)

// kvBackends names kv-mixed's two stores, in metric-name form.
var kvBackends = []string{"conv", "zns"}

// kv-mixed sizes: E5's 12,000-key working set and value size; each round
// overwrites writesPerRound keys per store while two closed-loop readers
// probe it.
type kvSize struct {
	keys, writesPerRound, keyPool int
}

func kvSizeFor(small bool) kvSize {
	if small {
		return kvSize{keys: 1500, writesPerRound: 100, keyPool: 1000}
	}
	return kvSize{keys: 12000, writesPerRound: 1000, keyPool: 8000}
}

const kvValueBytes = 580

// kvZoneBlocks is the erasure blocks per zone of core.E5Backends' ZNS device.
const kvZoneBlocks = 2

// timedBackend wraps a zkv.Backend with spans around every call. Traced
// runs open the store over it; untraced runs use the backend directly.
type timedBackend struct {
	zkv.Backend
	tr                                   *tracer
	sWrite, sRead, sDelete, sWAL, sReset int32
}

func (b *timedBackend) WriteTable(at sim.Time, blob []byte, level int) (zkv.TableHandle, sim.Time, error) {
	s := b.tr.begin(b.sWrite)
	h, done, err := b.Backend.WriteTable(at, blob, level)
	b.tr.end(s)
	return h, done, err
}

func (b *timedBackend) ReadAt(at sim.Time, h zkv.TableHandle, off, n int) (sim.Time, []byte, error) {
	s := b.tr.begin(b.sRead)
	done, data, err := b.Backend.ReadAt(at, h, off, n)
	b.tr.end(s)
	return done, data, err
}

func (b *timedBackend) Delete(at sim.Time, h zkv.TableHandle) error {
	s := b.tr.begin(b.sDelete)
	err := b.Backend.Delete(at, h)
	b.tr.end(s)
	return err
}

func (b *timedBackend) AppendWAL(at sim.Time, n int) (sim.Time, error) {
	s := b.tr.begin(b.sWAL)
	done, err := b.Backend.AppendWAL(at, n)
	b.tr.end(s)
	return done, err
}

func (b *timedBackend) ResetWAL(at sim.Time) error {
	s := b.tr.begin(b.sReset)
	err := b.Backend.ResetWAL(at)
	b.tr.end(s)
	return err
}

// kvStore is one zkv.DB with its generated key streams and the latest
// version written to each key, against which every Get is checked.
type kvStore struct {
	name string
	db   *zkv.DB
	raw  zkv.Backend
	chip *flash.Device
	zdev *zns.Device // nil on the conventional store
	tb   *timedBackend

	at           sim.Time
	ver          []uint32
	wkeys, rkeys []int32
	wi, ri       int

	puts, gets, bad uint64
	err             error
	putLat, getLat  []sim.Time

	before, mark       map[string]uint64
	markAt             sim.Time
	sPut, sGet, sDrive int32
}

// kvMixed drives both stores with core.RunMixed: one closed-loop
// overwrite writer and two closed-loop readers per store and round, E5's
// readwhilewriting shape, with no telemetry probe attached.
type kvMixed struct {
	stores []*kvStore
	keys   [][]byte
	val    []byte
	sz     kvSize
	rounds int
	dg     digest
	sRound int32
}

func newKVMixed(seed int64, small bool, tr *tracer) (bench, error) {
	sz := kvSizeFor(small)
	cb, zb, err := core.E5Backends(core.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	kv := &kvMixed{sz: sz, val: make([]byte, kvValueBytes), sRound: tr.id("round")}
	kv.keys = make([][]byte, sz.keys)
	for i := range kv.keys {
		kv.keys[i] = []byte(fmt.Sprintf("user%08d", i))
	}
	r := newRNG(seed)
	for i, raw := range []zkv.Backend{cb, zb} {
		s := &kvStore{name: kvBackends[i], raw: raw, ver: make([]uint32, sz.keys)}
		if i == 0 {
			s.chip = cb.Device().Flash()
		} else {
			s.chip, s.zdev = zb.Device().Flash(), zb.Device()
		}
		p := "zkv." + s.name + "."
		s.sPut, s.sGet, s.sDrive = tr.id(p+"put"), tr.id(p+"get"), tr.id("core.run_mixed."+s.name)
		var be zkv.Backend = raw
		if tr != nil {
			s.tb = &timedBackend{Backend: raw, sWrite: tr.id(p + "backend.write_table"),
				sRead: tr.id(p + "backend.read_at"), sDelete: tr.id(p + "backend.delete"),
				sWAL: tr.id(p + "backend.append_wal"), sReset: tr.id(p + "backend.reset_wal")}
			be = s.tb
		}
		s.db = zkv.Open(be, zkv.Options{MemtableBytes: 64 << 10, BaseLevelBytes: 256 << 10,
			TableTargetBytes: 32 << 10, Seed: seed})
		s.wkeys = make([]int32, sz.keyPool)
		s.rkeys = make([]int32, sz.keyPool)
		for j := range s.wkeys {
			s.wkeys[j] = int32(r.below(sz.keys))
			s.rkeys[j] = int32(r.below(sz.keys))
		}
		// Fill every key, then overwrite as many at random: the conventional
		// device's write amplification reaches its steady state (~5x) only
		// after about a working set of overwrites.
		for i := 0; i < 2*sz.keys; i++ {
			k := i
			if i >= sz.keys {
				k = r.below(sz.keys)
			}
			s.ver[k]++
			kv.stamp(k, s.ver[k])
			done, err := s.db.Put(s.at, kv.keys[k], kv.val)
			if err != nil {
				return nil, fmt.Errorf("%s fill: %w", s.name, err)
			}
			s.at = max(s.at, done)
		}
		s.putLat = make([]sim.Time, 0, sz.writesPerRound)
		s.before = s.counters()
		kv.dg.addCounters("setup "+s.name, s.before)
		kv.dg.add("setup %s at=%d", s.name, s.at)
		kv.stores = append(kv.stores, s)
	}
	return kv, nil
}

// stamp writes the key index and version into the value buffer, so a Get
// can be checked against the latest Put.
func (kv *kvMixed) stamp(k int, version uint32) {
	binary.LittleEndian.PutUint32(kv.val[0:], uint32(k))
	binary.LittleEndian.PutUint32(kv.val[4:], version)
}

func (kv *kvMixed) round(tr *tracer) int {
	root := tr.begin(kv.sRound)
	n := 0
	for _, s := range kv.stores {
		n += kv.drive(s, tr)
	}
	tr.end(root)
	return n
}

func (kv *kvMixed) drive(s *kvStore, tr *tracer) int {
	if s.tb != nil {
		s.tb.tr = tr
	}
	s.puts, s.gets, s.bad = 0, 0, 0
	s.putLat, s.getLat = s.putLat[:0], s.getLat[:0]
	left := kv.sz.writesPerRound
	last := s.at
	write := func(t sim.Time) (sim.Time, error) {
		if left == 0 {
			return t, core.ErrStopDrive
		}
		left--
		k := s.wkeys[s.wi]
		s.wi = (s.wi + 1) % len(s.wkeys)
		s.ver[k]++
		kv.stamp(int(k), s.ver[k])
		sp := tr.beginIO(s.sPut)
		done, err := s.db.Put(t, kv.keys[k], kv.val)
		tr.end(sp)
		s.puts++
		s.putLat = append(s.putLat, done-t)
		last = max(last, done)
		return done, err
	}
	read := func(t sim.Time) (sim.Time, error) {
		k := s.rkeys[s.ri]
		s.ri = (s.ri + 1) % len(s.rkeys)
		sp := tr.beginIO(s.sGet)
		done, v, found, err := s.db.Get(t, kv.keys[k])
		tr.end(sp)
		s.gets++
		if err != nil {
			return done, err
		}
		if !found || len(v) != kvValueBytes || binary.LittleEndian.Uint32(v) != uint32(k) ||
			binary.LittleEndian.Uint32(v[4:]) != s.ver[k] {
			s.bad++
		}
		s.getLat = append(s.getLat, done-t)
		last = max(last, done)
		return done, nil
	}
	sd := tr.begin(s.sDrive)
	res := core.RunMixed(core.MixedCfg{Writers: 1, Write: write, Readers: 2, Read: read,
		Start: s.at, Duration: sim.Hour})
	tr.end(sd)
	s.err = res.Err
	s.at = last
	return int(s.puts + s.gets)
}

func (s *kvStore) counters() map[string]uint64 {
	st := s.db.Stats()
	c := s.raw.Counters()
	k := s.chip.Counts()
	m := map[string]uint64{
		"puts": st.Puts, "gets": st.Gets, "flushes": st.Flushes, "compactions": st.Compactions,
		"tables": uint64(st.TablesNow), "compaction_read_bytes": st.CompactionReadBytes,
		"compaction_written_bytes": st.CompactionWrittenBytes, "flushed_bytes": st.FlushedBytes,
		"user_bytes":  st.UserWrittenBytes,
		"host_writes": c.HostWritePages, "host_reads": c.HostReadPages,
		"flash_programs": c.FlashProgramPages, "flash_reads": c.FlashReadPages,
		"erases": c.BlockErases, "gc_copies": c.GCCopyPages, "pcie_bytes": c.PCIeBytes,
		"chip_reads": k.Reads, "chip_programs": k.Programs, "chip_erases": k.Erases,
		"lun_busy_ns": lunBusy(s.chip),
	}
	if s.zdev != nil {
		m["zns_appends"], m["zns_resets"] = s.zdev.Appends(), s.zdev.Resets()
	}
	return m
}

func (kv *kvMixed) check() int {
	var v invariants
	for _, s := range kv.stores {
		now := s.counters()
		d := delta(now, s.before)
		s.before = now
		if s.err != nil {
			v.fail("%s: %v", s.name, s.err)
		}
		if s.bad > 0 {
			v.fail("%s: %d Gets returned a missing or stale value", s.name, s.bad)
		}
		for _, l := range s.putLat {
			if l <= 0 {
				v.fail("%s: non-positive put latency %d", s.name, l)
				break
			}
		}
		for _, l := range s.getLat {
			if l < 0 {
				v.fail("%s: negative get latency %d", s.name, l)
				break
			}
		}
		v.eq(s.name+" db puts == puts issued", d["puts"], s.puts)
		v.eq(s.name+" db gets == gets issued", d["gets"], s.gets)
		v.eq(s.name+" user bytes == puts x record size", d["user_bytes"], s.puts*uint64(len(kv.keys[0])+kvValueBytes))
		v.eq(s.name+" chip programs == flash programs", d["chip_programs"], d["flash_programs"])
		v.eq(s.name+" chip reads == flash reads", d["chip_reads"], d["flash_reads"])
		v.eq(s.name+" chip erases == block erases", d["chip_erases"], d["erases"])
		v.eq(s.name+" programs == host writes + GC copies", d["flash_programs"], d["host_writes"]+d["gc_copies"])
		v.eq(s.name+" flash reads == host reads + GC copies", d["flash_reads"], d["host_reads"]+d["gc_copies"])
		v.eq(s.name+" PCIe bytes == host pages x page size", d["pcie_bytes"],
			(d["host_writes"]+d["host_reads"])*uint64(s.raw.PageSize()))
		if s.zdev != nil {
			v.eq(s.name+" zone appends == host writes", d["zns_appends"], d["host_writes"])
			v.eq(s.name+" erases == zone resets x blocks per zone", d["erases"], d["zns_resets"]*kvZoneBlocks)
		}
		if kv.rounds < digestRounds {
			kv.dg.addCounters(fmt.Sprintf("round %d %s", kv.rounds, s.name), now)
			kv.dg.addLatency("put", s.putLat)
			kv.dg.addLatency("get", s.getLat)
			kv.dg.add("at=%d", s.at)
		}
	}
	kv.rounds++
	failed := len(v.broken)
	for _, b := range v.broken {
		fmt.Printf("check failed: %s\n", b)
	}
	// Each stale or missing read is a failed operation of its own.
	for _, s := range kv.stores {
		if s.bad > 1 {
			failed += int(s.bad) - 1
		}
	}
	return failed
}

func (kv *kvMixed) digest() string {
	if kv.rounds < digestRounds {
		return ""
	}
	return kv.dg.sum()
}

func (kv *kvMixed) markLayers() {
	for _, s := range kv.stores {
		s.mark, s.markAt = s.counters(), s.at
	}
}

func (kv *kvMixed) layers(tr *tracer, rounds int) map[string]float64 {
	r := float64(rounds)
	m := map[string]float64{}
	var busy, lunTime float64
	for _, s := range kv.stores {
		d := delta(s.counters(), s.mark)
		p := "zkv." + s.name + "."
		put, get := tr.stat(p+"put"), tr.stat(p+"get")
		var backendNS int64
		for _, op := range []string{"write_table", "read_at", "delete", "append_wal", "reset_wal"} {
			backendNS += tr.stat(p + "backend." + op).ns
		}
		m[p+"put_ms"] = ms(put.ns) / r
		m[p+"get_ms"] = ms(get.ns) / r
		m[p+"self_ms"] = ms(put.selfNS+get.selfNS) / r
		m[p+"backend_ms"] = ms(backendNS) / r
		ra := tr.stat(p + "backend.read_at")
		m[p+"read_at_calls"] = float64(ra.calls) / r
		m[p+"read_at_ms"] = ms(ra.ns) / r
		m[p+"write_table_ms"] = ms(tr.stat(p+"backend.write_table").ns) / r
		m[p+"flushes"] = float64(d["flushes"]) / r
		m[p+"compactions"] = float64(d["compactions"]) / r
		m[p+"app_wa"] = ratio(d["flushed_bytes"]+d["compaction_written_bytes"], d["user_bytes"])
		m[p+"dev_wa"] = ratio(d["flash_programs"], d["host_writes"])
		m["core.drive_self_ms"] += ms(tr.stat("core.run_mixed."+s.name).selfNS) / r
		m["zns.appends"] += float64(d["zns_appends"]) / r
		m["zns.resets"] += float64(d["zns_resets"]) / r
		m["flash.reads"] += float64(d["chip_reads"]) / r
		m["flash.programs"] += float64(d["chip_programs"]) / r
		m["flash.erases"] += float64(d["chip_erases"]) / r
		busy += float64(d["lun_busy_ns"])
		lunTime += float64(s.at-s.markAt) * float64(s.chip.Geom.LUNs())
	}
	if lunTime > 0 {
		m["flash.lun_util"] = busy / lunTime
	}
	return m
}

func (kv *kvMixed) accuracy() []string {
	var wa [2]float64
	for i, s := range kv.stores {
		d := delta(s.counters(), s.mark)
		wa[i] = ratio(d["flash_programs"], d["host_writes"])
	}
	return []string{fmt.Sprintf("accuracy: zkv.conv.dev_wa=%.2f zkv.zns.dev_wa=%.2f paper=5 -> 1.2 (RocksDB on conventional vs ZNS)", wa[0], wa[1])}
}
