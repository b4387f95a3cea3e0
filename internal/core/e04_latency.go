package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

func init() {
	register(Experiment{
		ID:         "E4",
		Title:      "Read latency and write throughput: conventional GC vs ZNS (WD benchmark, §2.4)",
		PaperClaim: "ZNS: 60% lower average read latency, ~3x higher write throughput",
		Run:        runE4,
	})
}

func e4Geometry() flash.Geometry {
	return flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 64, PagesPerBlock: 64, PageSize: 4096}
}

// E4Result is one device's measurement, exposed for benches and tests.
// The embedded forensics cover the measured window of the drive.
type E4Result struct {
	Name         string
	WritePagesPS float64
	ReadMean     sim.Time
	ReadP50      sim.Time
	ReadP90      sim.Time
	ReadP99      sim.Time
	ReadP999     sim.Time
	WriteP99     sim.Time
	forensics
}

// E4Conventional drives a steady-state conventional SSD: the device is
// pre-filled and the writers sustain uniform random overwrites, so the FTL
// garbage-collects continuously while Poisson reads arrive.
func E4Conventional(cfg Config) (E4Result, error) {
	s, dev, err := newConvStack(cfg, attrProbe(cfg), "conventional (OP 7%)", critpath.PredictOpts{},
		convConfig(cfg, e4Geometry(), 0.07))
	if err != nil {
		return E4Result{}, err
	}
	var at sim.Time
	for lpn := int64(0); lpn < s.capacity; lpn++ {
		if at, err = dev.WritePage(at, lpn, nil); err != nil {
			return E4Result{}, err
		}
	}
	src := workload.NewSource(cfg.Seed)
	wKeys := workload.NewUniform(src, s.capacity)
	// Age the device to GC steady state: overwrite 1.5x the logical space
	// so the measurement sees the sustained-GC regime, not a fresh drive.
	for i := int64(0); i < s.capacity*3/2; i++ {
		if at, err = dev.WritePage(at, wKeys.Next(), nil); err != nil {
			return E4Result{}, err
		}
	}
	rKeys := workload.NewUniform(src, s.capacity)
	return e4Measure(s, cfg, at, src,
		func(t sim.Time) (sim.Time, error) {
			return dev.WritePage(sim.Max(t, at), wKeys.Next(), nil)
		},
		func(t sim.Time) (sim.Time, error) {
			done, _, err := dev.ReadPage(sim.Max(t, at), rKeys.Next())
			return done, err
		})
}

// E4ZNS drives the zone-native equivalent: writers append through zones in
// a circular log, resetting each wholly-invalidated zone before reuse —
// the host schedules all reclamation, and no data is ever copied.
func E4ZNS(cfg Config) (E4Result, error) {
	scaleWP, wpScale := wpSerialScale(cfg)
	s, dev, err := newZNSStack(cfg, "zns (host-scheduled resets)",
		critpath.PredictOpts{ErasesAreResets: true},
		zns.Config{Geom: e4Geometry(), Lat: scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), true),
			ZoneBlocks: 4, ScaleWPSerial: scaleWP, WPSerialScale: wpScale})
	if err != nil {
		return E4Result{}, err
	}
	nz := dev.NumZones()
	// Pre-fill every zone so reads have targets and reuse requires resets.
	var at sim.Time
	for z := 0; z < nz; z++ {
		for o := int64(0); o < dev.ZonePages(); o++ {
			if _, at, err = dev.Append(at, z, nil); err != nil {
				return E4Result{}, err
			}
		}
	}
	src := workload.NewSource(cfg.Seed)
	rSrc := workload.NewUniform(src, s.capacity)
	nextZone := 0
	var cur = -1
	writeOne := func(t sim.Time) (sim.Time, error) {
		if cur < 0 || dev.WP(cur) >= dev.WritableCap(cur) {
			// Recycle the next zone in FIFO order: reset (erasing its now
			// stale data) and continue appending. The reset is the only
			// "GC" and the host chose its moment.
			z := nextZone
			nextZone = (nextZone + 1) % nz
			done, err := dev.Reset(t, z)
			if err != nil {
				return t, err
			}
			cur = z
			t = done
		}
		_, done, err := dev.Append(t, cur, nil)
		return done, err
	}
	return e4Measure(s, cfg, at, src,
		func(t sim.Time) (sim.Time, error) { return writeOne(sim.Max(t, at)) },
		func(t sim.Time) (sim.Time, error) {
			// Read only below the target zone's write pointer.
			lba := rSrc.Next()
			z, off := dev.ZoneOf(lba)
			if wp := dev.WP(z); wp == 0 {
				z, off = 0, 0
				if dev.WP(0) == 0 {
					return t, nil
				}
			} else if off >= wp {
				off = off % wp
			}
			done, _, err := dev.Read(sim.Max(t, at), dev.LBA(z, off))
			return done, err
		})
}

// e4Measure drives one prepared stack: closed-loop writers plus Poisson
// reads from at, with the whole drive as the measured window.
func e4Measure(s stack, cfg Config, at sim.Time, src *workload.Source, write, read OpFunc) (E4Result, error) {
	dur, warm := e4Duration(cfg)
	w := s.open()
	res := RunMixed(MixedCfg{
		Writers: 4, Write: write,
		ReadRate: e4ReadRate, Read: read,
		Start: at, Duration: dur, Warmup: warm, Src: src,
		Probe: s.probe,
	})
	if res.Err != nil {
		return E4Result{}, res.Err
	}
	f, err := w.close()
	if err != nil {
		return E4Result{}, err
	}
	return E4Result{
		Name:         s.name,
		WritePagesPS: res.WriteScale,
		ReadMean:     res.ReadLat.Mean,
		ReadP50:      res.ReadLat.P50,
		ReadP90:      res.ReadLat.P90,
		ReadP99:      res.ReadLat.P99,
		ReadP999:     res.ReadLat.P999,
		WriteP99:     res.WriteLat.P99,
		forensics:    f,
	}, nil
}

const e4ReadRate = 3000 // reads per virtual second

func e4Duration(cfg Config) (dur, warm sim.Time) {
	if cfg.Quick {
		return 400 * sim.Millisecond, 100 * sim.Millisecond
	}
	return 2 * sim.Second, 500 * sim.Millisecond
}

func runE4(cfg Config) (Report, error) {
	r := Report{
		ID:         "E4",
		Title:      "Mixed read/write: conventional vs ZNS",
		PaperClaim: "60% lower average read latency, ~3x higher throughput on ZNS",
		Header: []string{"Device", "Write pages/s", "Read mean (us)", "Read p99 (us)",
			"Read p999 (us)", "Write p99 (us)"},
	}
	var conv, z E4Result
	if err := runParts(cfg, part(&conv, E4Conventional), part(&z, E4ZNS)); err != nil {
		return r, err
	}
	for _, e := range []E4Result{conv, z} {
		r.AddRow(e.Name, fmt.Sprintf("%.0f", e.WritePagesPS),
			fmt.Sprintf("%.0f", e.ReadMean.Micros()),
			fmt.Sprintf("%.0f", e.ReadP99.Micros()),
			fmt.Sprintf("%.0f", e.ReadP999.Micros()),
			fmt.Sprintf("%.0f", e.WriteP99.Micros()))
		r.addForensics(cfg, e.Name, e.forensics, BenchEntry{
			Experiment: "E4", Name: e.Name,
			WritePPS:   e.WritePagesPS,
			ReadMeanUs: e.ReadMean.Micros(),
			ReadP50Us:  e.ReadP50.Micros(),
			ReadP90Us:  e.ReadP90.Micros(),
			ReadP99Us:  e.ReadP99.Micros(),
			ReadP999Us: e.ReadP999.Micros(),
			WriteP99Us: e.WriteP99.Micros(),
		})
	}
	r.AddNote("throughput ratio (zns/conv): %.2fx; read-mean reduction: %.0f%%; read-p99 ratio: %.2fx",
		z.WritePagesPS/conv.WritePagesPS,
		(1-float64(z.ReadMean)/float64(conv.ReadMean))*100,
		float64(conv.ReadP99)/float64(z.ReadP99))
	if w, rd := conv.Attr.Ops[telemetry.OpWrite], conv.Attr.Ops[telemetry.OpRead]; w.Count > 0 && rd.Count > 0 {
		r.AddNote("conventional tails decomposed: write p99=%.0fus of which gc_stall p99=%.0fus; read p99=%.0fus of which lun_wait (GC traffic) p99=%.0fus",
			w.Total.Percentile(99).Micros(),
			w.Phase[telemetry.PhaseGCStall].Percentile(99).Micros(),
			rd.Total.Percentile(99).Micros(),
			rd.Phase[telemetry.PhaseLUNWait].Percentile(99).Micros())
	}
	return r, nil
}
