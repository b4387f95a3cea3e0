package ftl

import (
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
)

func benchDev(b *testing.B, op float64) *Device {
	b.Helper()
	d, err := NewDefault(flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 128, PagesPerBlock: 64, PageSize: 4096},
		flash.LatenciesFor(flash.TLC), op)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkWritePageSequential measures the sequential write path with no
// GC pressure.
func BenchmarkWritePageSequential(b *testing.B) {
	d := benchDev(b, 0.1)
	var at sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, err = d.WritePage(at, int64(i)%d.CapacityPages(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePageSteadyStateGC measures random overwrites at GC steady
// state — the per-op cost including amortized relocation — at 10% OP and at
// E2's 0%-OP calibration point, where GC copies ~14 pages per host write.
func BenchmarkWritePageSteadyStateGC(b *testing.B) {
	b.Run("op=10%", func(b *testing.B) { benchSteadyStateGC(b, benchDev(b, 0.1)) })
	b.Run("e2-op=0%", func(b *testing.B) { benchSteadyStateGC(b, e2CalibrationDev(b)) })
}

func benchSteadyStateGC(b *testing.B, d *Device) {
	var at sim.Time
	for lpn := int64(0); lpn < d.CapacityPages(); lpn++ {
		at, _ = d.WritePage(at, lpn, nil)
	}
	keys := workload.NewUniform(workload.NewSource(1), d.CapacityPages())
	for i := int64(0); i < d.CapacityPages(); i++ { // age
		at, _ = d.WritePage(at, keys.Next(), nil)
	}
	runs := d.GCRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, err = d.WritePage(at, keys.Next(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.Counters().WriteAmp(), "WA")
	b.ReportMetric(float64(d.GCRuns()-runs)/float64(b.N), "gc_runs/op")
}

func BenchmarkReadPageMapped(b *testing.B) {
	d := benchDev(b, 0.1)
	at, _ := d.WritePage(0, 7, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, _, err = d.ReadPage(at, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
}
