package zkv

import (
	"bytes"
	"errors"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/zns"
)

func convBackend(t testing.TB) *ConvBackend {
	t.Helper()
	dev, err := ftl.New(ftl.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 512},
		Lat:               flash.LatenciesFor(flash.TLC),
		OPFraction:        0.1,
		HotColdSeparation: true,
		TrimSupported:     true,
		StoreData:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConvBackend(dev, 8)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func znsBackend(t testing.TB) *ZNSBackend {
	t.Helper()
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 512},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 4, // 32 zones x 64 pages x 512B = 32 KiB zones
		StoreData:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewZNSBackend(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func backends(t testing.TB) map[string]Backend {
	return map[string]Backend{"conv": convBackend(t), "zns": znsBackend(t)}
}

func TestBackendTableRoundTrip(t *testing.T) {
	for name, b := range backends(t) {
		blob := bytes.Repeat([]byte("0123456789abcdef"), 100) // 1600 B, >3 pages
		h, done, err := b.WriteTable(0, blob, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if done <= 0 {
			t.Errorf("%s: write took no time", name)
		}
		// Full read.
		_, got, err := b.ReadAt(done, h, 0, len(blob))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, blob) {
			t.Errorf("%s: full round trip failed", name)
		}
		// Unaligned sub-range.
		_, got, err = b.ReadAt(done, h, 513, 700)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, blob[513:1213]) {
			t.Errorf("%s: sub-range read wrong", name)
		}
		// Span errors.
		if _, _, err = b.ReadAt(done, h, 0, len(blob)+1); !errors.Is(err, ErrBadReadSpan) {
			t.Errorf("%s: over-read: %v", name, err)
		}
		if _, _, err = b.ReadAt(done, TableHandle(999), 0, 1); !errors.Is(err, ErrBadHandle) {
			t.Errorf("%s: bad handle: %v", name, err)
		}
		// Delete, then the handle is gone.
		if err := b.Delete(done, h); err != nil {
			t.Fatalf("%s: delete: %v", name, err)
		}
		if err := b.Delete(done, h); !errors.Is(err, ErrBadHandle) {
			t.Errorf("%s: double delete: %v", name, err)
		}
	}
}

func TestBackendWAL(t *testing.T) {
	for name, b := range backends(t) {
		var at sim.Time
		before := b.Counters().HostWritePages
		for i := 0; i < 20; i++ {
			var err error
			at, err = b.AppendWAL(at, 100)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if b.Counters().HostWritePages == before {
			t.Errorf("%s: WAL wrote no pages", name)
		}
		if err := b.ResetWAL(at); err != nil {
			t.Fatalf("%s: reset: %v", name, err)
		}
		// WAL continues after reset.
		if _, err := b.AppendWAL(at, 100); err != nil {
			t.Fatalf("%s: append after reset: %v", name, err)
		}
		// Zero-byte appends are free.
		c := b.Counters().HostWritePages
		b.AppendWAL(at, 0)
		if b.Counters().HostWritePages != c {
			t.Errorf("%s: empty append wrote pages", name)
		}
	}
}

func TestConvExtentReuse(t *testing.T) {
	b := convBackend(t)
	blob := make([]byte, 4*512)
	var hs []TableHandle
	var at sim.Time
	// Fill most of the data area, delete everything, fill again: the
	// allocator must reuse freed extents.
	cap := b.dev.CapacityPages() - b.walPages
	n := int(cap / 4)
	for i := 0; i < n; i++ {
		h, done, err := b.WriteTable(at, blob, 0)
		if err != nil {
			t.Fatalf("fill %d/%d: %v", i, n, err)
		}
		at = done
		hs = append(hs, h)
	}
	if _, _, err := b.WriteTable(at, blob, 0); !errors.Is(err, ErrNoSpace) {
		t.Errorf("overfull write: %v", err)
	}
	for _, h := range hs {
		if err := b.Delete(at, h); err != nil {
			t.Fatal(err)
		}
	}
	// Free list must have coalesced back to one extent.
	if len(b.free) != 1 || b.free[0].pages != cap {
		t.Errorf("free list after full delete: %+v (cap %d)", b.free, cap)
	}
	for i := 0; i < n; i++ {
		var err error
		_, at, err = b.WriteTable(at, blob, 0)
		if err != nil {
			t.Fatalf("refill %d: %v", i, err)
		}
	}
}

func TestZNSLevelSeparation(t *testing.T) {
	b := znsBackend(t)
	blob := make([]byte, 2*512)
	h0, _, err := b.WriteTable(0, blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := b.WriteTable(0, blob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.tables[h0].zone == b.tables[h2].zone {
		t.Error("different levels share a zone")
	}
	// Levels beyond the stream count share the last stream's zone.
	h5, _, err := b.WriteTable(0, blob, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.tables[h5].zone != b.tables[h2].zone {
		t.Error("deep level did not fold into the last stream")
	}
}

func TestZNSDeadZoneResetWithoutCopy(t *testing.T) {
	b := znsBackend(t)
	// Fill one zone with tables, seal it by rolling, delete all: the zone
	// must come back without any simple copy.
	blob := make([]byte, 16*512) // 16 pages; zone = 64 pages
	var hs []TableHandle
	var at sim.Time
	for i := 0; i < 8; i++ { // spills into a second zone, sealing the first
		h, done, err := b.WriteTable(at, blob, 0)
		if err != nil {
			t.Fatal(err)
		}
		at = done
		hs = append(hs, h)
	}
	for _, h := range hs[:4] { // all tables of the first (sealed) zone
		if err := b.Delete(at, h); err != nil {
			t.Fatal(err)
		}
	}
	if b.Counters().GCCopyPages != 0 {
		t.Errorf("reclaiming a dead zone copied %d pages; want 0", b.Counters().GCCopyPages)
	}
	if b.Device().Resets() == 0 {
		t.Error("dead zone was not reset")
	}
}

func TestZNSReclaimRelocatesSurvivors(t *testing.T) {
	b := znsBackend(t)
	blob := make([]byte, 8*512)
	var at sim.Time
	var live []TableHandle
	del := func(i int) {
		// Pseudo-random victim so survivors scatter across zones and
		// reclamation cannot always find a fully-dead zone.
		j := (i * 13) % len(live)
		victim := live[j]
		live = append(live[:j], live[j+1:]...)
		if err := b.Delete(at, victim); err != nil {
			t.Fatal(err)
		}
	}
	// Churn tables, deleting ~7/8 of them; the slowly-growing survivor set
	// fragments across zones until the free pool dries up and reclamation
	// must relocate.
	for i := 0; i < 1200; i++ {
		h, done, err := b.WriteTable(at, blob, 0)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		at = done
		live = append(live, h)
		if i%8 != 0 && len(live) > 1 {
			del(i)
		}
		for len(live) > 140 {
			del(i + 7)
		}
	}
	// Survivors must still read back.
	for _, h := range live {
		if _, _, err := b.ReadAt(at, h, 0, 8*512); err != nil {
			t.Fatalf("survivor read: %v", err)
		}
	}
	if b.RelocatedPages() == 0 {
		t.Error("expected some relocation under this churn")
	}
}

func TestBackendNames(t *testing.T) {
	if convBackend(t).Name() != "conventional" || znsBackend(t).Name() != "zns" {
		t.Error("backend names wrong")
	}
}
