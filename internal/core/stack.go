package core

import (
	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
	"blockhead/internal/zns"
)

// This file builds the attributed device stacks the conventional-vs-ZNS
// experiments compare (E4, E6, A5, E13, E14), brackets their measured
// windows, and renders what a window captured as the report's forensic
// sections. Workloads, key sources, and prefill stay in the experiments.

// stack is one attributed device stack: the run's attribution probe is
// attached to its devices, and the per-IO forensics layers (exemplar
// reservoir, or the -explain narrator) are armed with its label, what-if
// replay model, and device-snapshot source.
type stack struct {
	name     string
	probe    *telemetry.Probe
	opts     critpath.PredictOpts // the stack's what-if replay model
	capacity int64                // logical pages the host may address
	// counters reads host writes and flash programs (nil on raw ZNS, where
	// every append is a host write).
	counters func() (hostWrites, flashPrograms uint64)
	// device snapshots the end-of-run device state; on zoned stacks it
	// first runs the zone state-machine auditor's check.
	device func() (DeviceState, error)
}

// newConvStack builds a conventional (device-FTL) stack from fc, attached
// to probe (attrProbe(cfg), or nil for an unattributed stack whose window
// captures nothing). The wiring order — device, probe, exemplar arming —
// is part of the seeded run: every stack constructor keeps it, and the
// caller prefills after.
func newConvStack(cfg Config, probe *telemetry.Probe, name string, opts critpath.PredictOpts, fc ftl.Config) (stack, *ftl.Device, error) {
	dev, err := ftl.New(fc)
	if err != nil {
		return stack{}, nil, err
	}
	dev.SetProbe(probe)
	if probe != nil {
		exemplarArm(cfg, probe, name, opts, convDevSnap(dev, fc.Geom))
	}
	return stack{
		name: name, probe: probe, opts: opts, capacity: dev.CapacityPages(),
		counters: func() (uint64, uint64) {
			c := dev.Counters()
			return c.HostWritePages, c.FlashProgramPages
		},
		device: func() (DeviceState, error) {
			return DeviceState{Name: name, Wear: dev.Flash().Wear()}, nil
		},
	}, dev, nil
}

// newZNSStack builds a raw ZNS stack (the host appends and resets zones
// itself) from zc, with the zone state-machine auditor attached.
func newZNSStack(cfg Config, name string, opts critpath.PredictOpts, zc zns.Config) (stack, *zns.Device, error) {
	dev, err := zns.New(zc)
	if err != nil {
		return stack{}, nil, err
	}
	probe := attrProbe(cfg)
	dev.SetProbe(probe)
	exemplarArm(cfg, probe, name, opts, znsDevSnap(dev, zc.Geom, rawReclaim(dev)))
	aud := dev.AttachAuditor()
	return stack{name: name, probe: probe, opts: opts,
		capacity: int64(dev.NumZones()) * dev.ZonePages(),
		device:   auditedState(name, dev, aud)}, dev, nil
}

// newHostStack builds a host FTL (hc) over a ZNS device (zc), with the
// zone state-machine auditor attached to the device.
func newHostStack(cfg Config, name string, opts critpath.PredictOpts, zc zns.Config, hc hostftl.Config) (stack, *hostftl.FTL, error) {
	dev, err := zns.New(zc)
	if err != nil {
		return stack{}, nil, err
	}
	f, err := hostftl.New(dev, hc)
	if err != nil {
		return stack{}, nil, err
	}
	probe := attrProbe(cfg)
	f.SetProbe(probe)
	exemplarArm(cfg, probe, name, opts, znsDevSnap(dev, zc.Geom, hostReclaim(f)))
	aud := dev.AttachAuditor()
	return stack{
		name: name, probe: probe, opts: opts, capacity: f.CapacityPages(),
		counters: func() (uint64, uint64) {
			return f.HostWrites(), f.Counters().FlashProgramPages
		},
		device: auditedState(name, dev, aud),
	}, f, nil
}

// auditedState is a zoned stack's end-of-run snapshot source: a failed
// audit check fails the run.
func auditedState(name string, dev *zns.Device, aud *zns.Auditor) func() (DeviceState, error) {
	return func() (DeviceState, error) {
		if err := aud.Check(); err != nil {
			return DeviceState{}, err
		}
		return deviceState(name, dev, aud), nil
	}
}

// convConfig is the conventional device of E4 and E6: NewDefault's
// controller (hot/cold separation, trim) at opFraction spare, with the
// run's scenario-scaled latencies.
func convConfig(cfg Config, geom flash.Geometry, opFraction float64) ftl.Config {
	return ftl.Config{Geom: geom, Lat: scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), false),
		OPFraction: opFraction, HotColdSeparation: true, TrimSupported: true}
}

// forensics is what one measured window captured on a stack: the
// per-phase latency attribution, the critical-path recording with the
// stack's replay model, the drained exemplar reservoir (the slowest IOs)
// with the tenant labels at drain time, and the end-of-run device state.
// Results embed it, so res.Attr, res.Crit, res.Device... stay selectors.
type forensics struct {
	Attr      telemetry.AttrSnapshot
	Crit      critpath.Snapshot
	CritOpts  critpath.PredictOpts
	Exem      exemplar.Snapshot
	ExemNames [telemetry.MaxTenants]string
	Device    DeviceState
}

// rebaseSeqs shifts the exemplar sequence numbers from the part's private
// numbering to the experiment's cross-stack numbering (see runParts).
func (f *forensics) rebaseSeqs(delta uint64) { f.Exem.Rebase(delta) }

// window is an open measured window on a stack.
type window struct {
	s      stack
	before telemetry.AttrSnapshot
}

// open starts a measured window: it takes the attribution baseline and
// discards the critical paths and exemplars of everything before it
// (prefill, aging, unmeasured phases).
func (s stack) open() window {
	sink := s.probe.Attribution()
	w := window{s: s, before: sink.Snapshot()}
	critpath.DrainFromSink(sink)
	exemplar.FromSink(sink).Drain()
	return w
}

// close ends the window and returns what it captured: the attribution
// delta, the recorded critical paths, the exemplar reservoir (empty in
// explain mode, where the narrator replaces it) with the tenant labels at
// drain time, and — checked last — the stack's end-of-run device state.
func (w window) close() (forensics, error) {
	sink := w.s.probe.Attribution()
	f := forensics{Attr: sink.Snapshot().Delta(w.before), CritOpts: w.s.opts,
		Crit: critpath.DrainFromSink(sink), Exem: exemplar.FromSink(sink).Drain()}
	for t := range f.ExemNames {
		f.ExemNames[t] = sink.TenantName(telemetry.TenantID(t))
	}
	var err error
	f.Device, err = w.s.device()
	return f, err
}

// addForensics adds one configuration's four forensic sections (latency
// attribution, critical path & what-if, slowest IOs, device state) and
// appends its bench entry b with the matching forensic fields filled.
func (r *Report) addForensics(cfg Config, name string, f forensics, b BenchEntry) {
	r.AddBreakdown(name, f.Attr)
	r.AddCrit(cfg, name, f.Crit, f.CritOpts, f.Attr)
	r.AddExemplars(cfg, name, f.Exem, f.CritOpts, f.ExemNames)
	r.AddDeviceState(f.Device)
	b.Attribution = f.Attr.Dump()
	b.CritPath = critBench(f.Crit, f.CritOpts)
	b.Exemplars = f.Exem.Bench()
	r.Bench = append(r.Bench, b)
}
