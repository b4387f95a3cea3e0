package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

func init() {
	register(Experiment{
		ID:         "E6",
		Title:      "Host-scheduled reclamation (IBM SALSA on ZNS, §2.4)",
		PaperClaim: "22x lower tail latencies, 65% higher application throughput",
		Run:        runE6,
	})
}

func e6Geometry() flash.Geometry {
	return flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 64, PagesPerBlock: 64, PageSize: 4096}
}

// E6Result is one configuration's measurement: closed-loop write throughput
// (phase A) and read tail latency under a fixed offered load (phase B).
type E6Result struct {
	Name         string
	WritePagesPS float64
	WA           float64
	ReadMean     sim.Time
	ReadP50      sim.Time
	ReadP90      sim.Time
	ReadP99      sim.Time
	ReadP999     sim.Time
	WriteP99     sim.Time
	WriteMax     sim.Time
	// Attr is the per-phase latency attribution over the tail-latency phase
	// (phase B) of the drive.
	Attr telemetry.AttrSnapshot
	// Crit is the critical-path recording over phase B; CritOpts selects
	// the stack's replay model (zoned: erases are resets).
	Crit     critpath.Snapshot
	CritOpts critpath.PredictOpts
	// Exem is the drained exemplar reservoir over phase B (the slowest IOs
	// with full forensics); ExemNames are the tenant labels.
	Exem      exemplar.Snapshot
	ExemNames [telemetry.MaxTenants]string
	// Device is the end-of-run device snapshot (wear, zone census, audit).
	Device DeviceState
}

// rebaseSeqs shifts the result's exemplar sequence numbers from its
// part's private numbering to the experiment's cross-stack numbering.
func (e *E6Result) rebaseSeqs(delta uint64) { e.Exem.Rebase(delta) }

// e6Stack abstracts the two configurations for the shared two-phase drive.
type e6Stack struct {
	name     string
	write    OpFunc
	read     OpFunc
	maintain OpFunc // optional paced maintenance (host-scheduled GC)
	counters func() (hostWrites, flashPrograms uint64)
	at       sim.Time // virtual time after pre-fill and aging
	src      *workload.Source
	probe    *telemetry.Probe // per-stack attribution probe
	critOpts critpath.PredictOpts
	// device snapshots the end-of-run device state (wear/census/audit).
	device func() (DeviceState, error)
}

// The fixed offered load for the tail phase: ~55% of the conventional
// configuration's measured write capacity, so both stacks are stable and
// tails reflect reclamation interference rather than saturation.
const (
	e6ReadRate  = 2000.0
	e6WriteRate = 700.0
	// Maintenance ticks: paced so the worst case (budget copies + one
	// erase per tick) injects well under the device's spare bandwidth —
	// ~800 copies/s against a ~175 copies/s requirement at the offered
	// load. Pacing is the whole point: reclamation must never arrive in
	// bursts the reads can feel (§4.1).
	e6MaintTickRate = 400.0
)

func e6MaintRate(m OpFunc) float64 {
	if m == nil {
		return 0
	}
	return e6MaintTickRate
}

func e6Measure(s e6Stack, cfg Config) (E6Result, error) {
	durA, durB, warm := 1*sim.Second, 2*sim.Second, 250*sim.Millisecond
	if cfg.Quick {
		durA, durB, warm = 300*sim.Millisecond, 500*sim.Millisecond, 100*sim.Millisecond
	}
	h0, p0 := s.counters()
	// Phase A: closed-loop throughput.
	resA := RunMixed(MixedCfg{
		Writers: 2, Write: s.write,
		Start: s.at, Duration: durA, Warmup: warm, Src: s.src,
		Probe: s.probe,
	})
	if resA.Err != nil {
		return E6Result{}, resA.Err
	}
	// Phase B: fixed offered load, measure read tails. The host stack runs
	// its reclamation as a separate paced stream. The attribution breakdown
	// covers this phase only — it is the one the tail claims are about.
	beforeB := s.probe.Attribution().Snapshot()
	critDrain(s.probe)     // discard prefill/phase-A paths
	exemplarDrain(s.probe) // likewise for exemplars
	resB := RunMixed(MixedCfg{
		WriteRate: e6WriteRate, Write: s.write,
		ReadRate: e6ReadRate, Read: s.read,
		AuxRate: e6MaintRate(s.maintain), Aux: s.maintain,
		Start: s.at + durA, Duration: durB, Warmup: warm, Src: s.src,
		Probe: s.probe,
	})
	if resB.Err != nil {
		return E6Result{}, resB.Err
	}
	attr := s.probe.Attribution().Snapshot().Delta(beforeB)
	crit := critDrain(s.probe)
	exem := exemplarDrain(s.probe)
	h1, p1 := s.counters()
	wa := float64(p1-p0) / float64(h1-h0)
	var ds DeviceState
	if s.device != nil {
		var err error
		if ds, err = s.device(); err != nil {
			return E6Result{}, err
		}
	}
	return E6Result{
		Attr:         attr,
		Crit:         crit,
		CritOpts:     s.critOpts,
		Exem:         exem,
		ExemNames:    exemplarNames(s.probe),
		Device:       ds,
		Name:         s.name,
		WritePagesPS: resA.WriteScale,
		WA:           wa,
		ReadMean:     resB.ReadLat.Mean,
		ReadP50:      resB.ReadLat.P50,
		ReadP90:      resB.ReadLat.P90,
		ReadP99:      resB.ReadLat.P99,
		ReadP999:     resB.ReadLat.P999,
		WriteP99:     resB.WriteLat.P99,
		WriteMax:     resB.WriteLat.Max,
	}, nil
}

// E6Conventional is the baseline: a skewed block workload on a conventional
// SSD whose opaque FTL does foreground GC.
func E6Conventional(cfg Config) (E6Result, error) {
	dev, err := ftl.NewDefault(e6Geometry(), scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), false), 0.11)
	if err != nil {
		return E6Result{}, err
	}
	probe := attrProbe(cfg)
	dev.SetProbe(probe)
	exemplarArm(cfg, probe, "conventional (opaque device GC)", critpath.PredictOpts{},
		convDevSnap(dev, e6Geometry()))
	var at sim.Time
	for lpn := int64(0); lpn < dev.CapacityPages(); lpn++ {
		if at, err = dev.WritePage(at, lpn, nil); err != nil {
			return E6Result{}, err
		}
	}
	src := workload.NewSource(cfg.Seed)
	hc := workload.NewHotCold(src, dev.CapacityPages(), 0.1, 0.9)
	for i := int64(0); i < dev.CapacityPages(); i++ { // age to steady state
		if at, err = dev.WritePage(at, hc.Next(), nil); err != nil {
			return E6Result{}, err
		}
	}
	rKeys := workload.NewUniform(src, dev.CapacityPages())
	return e6Measure(e6Stack{
		name:  "conventional (opaque device GC)",
		write: func(t sim.Time) (sim.Time, error) { return dev.WritePage(t, hc.Next(), nil) },
		read: func(t sim.Time) (sim.Time, error) {
			done, _, err := dev.ReadPage(t, rKeys.Next())
			return done, err
		},
		counters: func() (uint64, uint64) {
			c := dev.Counters()
			return c.HostWritePages, c.FlashProgramPages
		},
		at:    at,
		src:   src,
		probe: probe,
		device: func() (DeviceState, error) {
			return DeviceState{Name: "conventional (opaque device GC)",
				Wear: dev.Flash().Wear()}, nil
		},
	}, cfg)
}

// e6ZonedCritOpts is the replay model for the host-FTL-on-ZNS stacks:
// every erase is a zone reset, so zone_reset counterfactuals reach
// erase-bound waits.
var e6ZonedCritOpts = critpath.PredictOpts{ErasesAreResets: true}

// E6HostFTL is the SALSA-style configuration: a host log-structured
// translation layer over ZNS with incremental reclamation spread across
// writes, simple-copy relocation, and hot/cold stream separation from
// application knowledge the device never had (§4.1).
func E6HostFTL(cfg Config) (E6Result, error) {
	// Narrow zones (one erasure block each) give the host the same
	// reclamation granularity the conventional FTL enjoys; four open zones
	// per stream restore write parallelism across LUNs. OPFraction 0.20
	// matches the conventional baseline's *effective* spare (its 11% OP
	// plus its fixed reserve floor and frontier headroom).
	scaleWP, wpScale := wpSerialScale(cfg)
	dev, err := zns.New(zns.Config{Geom: e6Geometry(),
		Lat:        scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), true),
		ZoneBlocks: 1, ScaleWPSerial: scaleWP, WPSerialScale: wpScale})
	if err != nil {
		return E6Result{}, err
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
		return E6Result{}, err
	}
	probe := attrProbe(cfg)
	f.SetProbe(probe)
	exemplarArm(cfg, probe, "host FTL on ZNS (paced GC + streams)", e6ZonedCritOpts,
		znsDevSnap(dev, e6Geometry(), hostReclaim(f)))
	aud := dev.AttachAuditor()
	var at sim.Time
	src := workload.NewSource(cfg.Seed)
	hc := workload.NewHotCold(src, f.CapacityPages(), 0.1, 0.9)
	writeOne := func(t sim.Time) (sim.Time, error) {
		k := hc.Next()
		stream := 1
		if hc.IsHot(k) {
			stream = 0
		}
		return f.WriteStream(t, k, stream, nil)
	}
	for lpn := int64(0); lpn < f.CapacityPages(); lpn++ {
		if at, err = f.Write(at, lpn, nil); err != nil {
			return E6Result{}, err
		}
	}
	for i := int64(0); i < f.CapacityPages(); i++ { // age to steady state
		if at, err = writeOne(at); err != nil {
			return E6Result{}, err
		}
	}
	rKeys := workload.NewUniform(src, f.CapacityPages())
	return e6Measure(e6Stack{
		name:  "host FTL on ZNS (paced GC + streams)",
		write: writeOne,
		read: func(t sim.Time) (sim.Time, error) {
			done, _, err := f.Read(t, rKeys.Next())
			return done, err
		},
		maintain: func(t sim.Time) (sim.Time, error) {
			// A few pages of relocation per tick, on the host's own clock,
			// keeping the pool comfortably above the inline thresholds.
			f.MaintenanceStep(t, 2, 12)
			return t, nil
		},
		counters: func() (uint64, uint64) {
			return f.HostWrites(), f.Counters().FlashProgramPages
		},
		at:       at,
		src:      src,
		probe:    probe,
		critOpts: e6ZonedCritOpts,
		device: func() (DeviceState, error) {
			if err := aud.Check(); err != nil {
				return DeviceState{}, err
			}
			return deviceState("host FTL on ZNS (paced GC + streams)", dev, aud), nil
		},
	}, cfg)
}

func runE6(cfg Config) (Report, error) {
	r := Report{
		ID:         "E6",
		Title:      "Host-scheduled GC vs device-opaque GC",
		PaperClaim: "host stack: 22x lower tail latency, 65% higher throughput (IBM SALSA)",
		Header: []string{"Configuration", "Write pages/s", "WA",
			"Read mean (us)", "Read p99 (us)", "Read p999 (us)"},
	}
	var conv, host E6Result
	if err := runParts(cfg, part(&conv, E6Conventional), part(&host, E6HostFTL)); err != nil {
		return r, err
	}
	for _, e := range []E6Result{conv, host} {
		r.AddRow(e.Name, fmt.Sprintf("%.0f", e.WritePagesPS), fmt.Sprintf("%.2f", e.WA),
			fmt.Sprintf("%.0f", e.ReadMean.Micros()),
			fmt.Sprintf("%.0f", e.ReadP99.Micros()),
			fmt.Sprintf("%.0f", e.ReadP999.Micros()))
		r.AddBreakdown(e.Name, e.Attr)
		r.AddCrit(cfg, e.Name, e.Crit, e.CritOpts, e.Attr)
		r.AddExemplars(cfg, e.Name, e.Exem, e.CritOpts, e.ExemNames)
		r.AddDeviceState(e.Device)
		r.Bench = append(r.Bench, BenchEntry{
			Experiment: "E6", Name: e.Name,
			WritePPS:    e.WritePagesPS,
			WriteAmp:    e.WA,
			ReadMeanUs:  e.ReadMean.Micros(),
			ReadP50Us:   e.ReadP50.Micros(),
			ReadP90Us:   e.ReadP90.Micros(),
			ReadP99Us:   e.ReadP99.Micros(),
			ReadP999Us:  e.ReadP999.Micros(),
			WriteP99Us:  e.WriteP99.Micros(),
			Attribution: e.Attr.Dump(),
			CritPath:    critBench(e.Crit, e.CritOpts),
			Exemplars:   e.Exem.Bench(),
		})
	}
	r.AddNote("tail ratio (p999 conv/host): %.1fx; throughput gain: %.0f%%",
		float64(conv.ReadP999)/float64(host.ReadP999),
		(host.WritePagesPS/conv.WritePagesPS-1)*100)
	return r, nil
}
