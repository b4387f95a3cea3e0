package zkv

import (
	"fmt"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

func BenchmarkMemtablePut(b *testing.B) {
	m := newMemtable(1)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i*7919%100000))
	}
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.put(keys[i%len(keys)], val)
	}
}

func BenchmarkMemtableGet(b *testing.B) {
	m := newMemtable(1)
	for i := 0; i < 10000; i++ {
		m.put([]byte(fmt.Sprintf("key%08d", i)), []byte("v"))
	}
	probe := []byte("key00005000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.get(probe); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTableBuilder(b *testing.B) {
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i))
	}
	val := make([]byte, 100)
	var tb tableBuilder // one builder, reset per table, as DB uses it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.reset()
		for _, k := range keys {
			tb.add(k, val)
		}
		blob, _ := tb.finish()
		if len(blob) == 0 {
			b.Fatal("empty blob")
		}
	}
}

func benchZNSDB(b *testing.B) *DB {
	b.Helper()
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 4, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 24, PagesPerBlock: 64, PageSize: 4096},
		Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 4, StoreData: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	backend, err := NewZNSBackend(dev, 4)
	if err != nil {
		b.Fatal(err)
	}
	return Open(backend, Options{MemtableBytes: 64 << 10, BaseLevelBytes: 256 << 10,
		TableTargetBytes: 32 << 10, Seed: 1})
}

// BenchmarkDBPut measures the full LSM write path (WAL + memtable +
// amortized flush/compaction) on the ZNS backend.
func BenchmarkDBPut(b *testing.B) {
	db := benchZNSDB(b)
	keys := workload.NewUniform(workload.NewSource(1), 5000)
	val := make([]byte, 128)
	var at sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, err = db.Put(at, []byte(fmt.Sprintf("key%08d", keys.Next())), val)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBGet measures point lookups against a populated tree.
func BenchmarkDBGet(b *testing.B) {
	db := benchZNSDB(b)
	var at sim.Time
	for i := 0; i < 5000; i++ {
		at, _ = db.Put(at, []byte(fmt.Sprintf("key%08d", i)), make([]byte, 128))
	}
	keys := workload.NewUniform(workload.NewSource(2), 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, found, err := db.Get(at, []byte(fmt.Sprintf("key%08d", keys.Next())))
		if err != nil || !found {
			b.Fatalf("get: %v found=%v", err, found)
		}
	}
}
