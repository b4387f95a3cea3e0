package zkv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"blockhead/internal/sim"
)

// padTo right-pads data with zeros to n bytes; with oldReadSpan it is the
// copying read path the backends used before views, kept as the oracle.
func padTo(data []byte, n int) []byte {
	if len(data) >= n {
		return data[:n]
	}
	out := make([]byte, n)
	copy(out, data)
	return out
}

func oldReadSpan(ps, off, n int, pages [][]byte) []byte {
	out := make([]byte, 0, n)
	for pos := off; pos < off+n; {
		chunk := padTo(pages[pos/ps], ps)
		inPage := pos % ps
		take := ps - inPage
		if rem := off + n - pos; take > rem {
			take = rem
		}
		out = append(out, chunk[inPage:inPage+take]...)
		pos += take
	}
	return out
}

// TestSpanReaderMatchesPadTo checks readSpan against the copying oracle
// over random page sizes, spans and payload layouts: slices of one shared
// blob (adjacent in memory), separately allocated pages, short payloads
// and missing ones. Each touched page must be read once, in order; the
// result must be clipped (len == cap); and a span over adjacent full
// payloads must be a view of the blob, not a copy.
func TestSpanReaderMatchesPadTo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		ps := 1 + rng.Intn(32)
		np := 1 + rng.Intn(8)
		blob := make([]byte, np*ps)
		rng.Read(blob)
		pages := make([][]byte, np)
		shared := make([]bool, np) // page p is the full blob slice
		for p := range pages {
			full := blob[p*ps : (p+1)*ps]
			switch rng.Intn(5) {
			case 0: // separately allocated, with spare capacity
				pages[p] = append(make([]byte, 0, ps+rng.Intn(4)), full...)
			case 1: // short: a prefix of the shared slice
				pages[p] = full[:rng.Intn(ps)]
			case 2:
				pages[p] = nil
			default:
				pages[p] = full
				shared[p] = true
			}
		}
		off := rng.Intn(np * ps)
		n := rng.Intn(np*ps - off + 1)

		var reads []int64
		_, got, err := readSpan(0, ps, off, n, func(page int64) (sim.Time, []byte, error) {
			reads = append(reads, page)
			return sim.Time(page), pages[page], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := oldReadSpan(ps, off, n, pages)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (ps=%d off=%d n=%d): got %x, want %x", trial, ps, off, n, got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("trial %d: len %d != cap %d", trial, len(got), cap(got))
		}
		var wantReads []int64
		if n > 0 {
			for p := off / ps; p <= (off+n-1)/ps; p++ {
				wantReads = append(wantReads, int64(p))
			}
		}
		if !reflect.DeepEqual(reads, wantReads) {
			t.Fatalf("trial %d: pages read %v, want %v", trial, reads, wantReads)
		}
		allShared := n > 0
		for _, p := range wantReads {
			allShared = allShared && shared[p]
		}
		if allShared && &got[0] != &blob[off] {
			t.Fatalf("trial %d: span over adjacent payloads was copied", trial)
		}
	}
}

// TestReadAtResultIsReadOnly appends to ReadAt results — a whole table, a
// prefix that ends mid-page, and a span crossing a page boundary — and
// checks that the table still reads back unchanged on both backends.
func TestReadAtResultIsReadOnly(t *testing.T) {
	for name, b := range backends(t) {
		blob := make([]byte, 1600) // 4 pages of 512 B, the last one short
		rand.New(rand.NewSource(5)).Read(blob)
		want := append([]byte(nil), blob...)
		h, _, err := b.WriteTable(0, blob, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		junk := bytes.Repeat([]byte{0xee}, 700)
		for _, span := range [][2]int{{0, 1600}, {0, 100}, {500, 30}, {1024, 576}} {
			_, got, err := b.ReadAt(0, h, span[0], span[1])
			if err != nil {
				t.Fatalf("%s %v: %v", name, span, err)
			}
			if len(got) != cap(got) {
				t.Errorf("%s %v: len %d != cap %d", name, span, len(got), cap(got))
			}
			_ = append(got, junk...)
		}
		_, got, err := b.ReadAt(0, h, 0, len(want))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: table changed after appending to ReadAt results", name)
		}
	}
}

// TestReadAtZeroAllocs pins the view path: reading a stored table span
// allocates nothing on either backend.
func TestReadAtZeroAllocs(t *testing.T) {
	for name, b := range backends(t) {
		h, _, err := b.WriteTable(0, make([]byte, 1600), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, _, err := b.ReadAt(0, h, 100, 1400); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ReadAt = %.1f allocs/op, want 0", name, allocs)
		}
	}
}

func BenchmarkBackendReadAt(b *testing.B) {
	for _, name := range []string{"conv", "zns"} {
		b.Run(name, func(b *testing.B) {
			be := backends(b)[name]
			h, _, err := be.WriteTable(0, make([]byte, 16<<10), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := be.ReadAt(0, h, 0, 16<<10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// bufferBuilder is the table builder before it became reusable — a fresh
// bytes.Buffer per table, key copies for the filter — kept as the oracle
// for the blob format.
type bufferBuilder struct {
	buf     bytes.Buffer
	index   []indexEntry
	keys    [][]byte
	count   int
	nextIdx int
}

func (b *bufferBuilder) add(key, value []byte) {
	if b.buf.Len() >= b.nextIdx {
		b.index = append(b.index, indexEntry{key: append([]byte(nil), key...), off: b.buf.Len()})
		b.nextIdx = b.buf.Len() + indexInterval
	}
	var scratch [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(key)))
	vlen := uint64(0)
	if value != nil {
		vlen = uint64(len(value)) + 1
	}
	n += binary.PutUvarint(scratch[n:], vlen)
	b.buf.Write(scratch[:n])
	b.buf.Write(key)
	b.buf.Write(value)
	b.keys = append(b.keys, append([]byte(nil), key...))
	b.count++
}

func (b *bufferBuilder) finish() []byte {
	indexOff := b.buf.Len()
	var scratch [binary.MaxVarintLen64]byte
	for _, ie := range b.index {
		n := binary.PutUvarint(scratch[:], uint64(len(ie.key)))
		b.buf.Write(scratch[:n])
		b.buf.Write(ie.key)
		n = binary.PutUvarint(scratch[:], uint64(ie.off))
		b.buf.Write(scratch[:n])
	}
	filterOff := b.buf.Len()
	filter := newBloom(b.count)
	for _, k := range b.keys {
		filter.add(k)
	}
	n := binary.PutUvarint(scratch[:], uint64(filter.k))
	b.buf.Write(scratch[:n])
	b.buf.Write(filter.bits)
	var footer [footerSize]byte
	binary.LittleEndian.PutUint32(footer[0:], uint32(indexOff))
	binary.LittleEndian.PutUint32(footer[4:], uint32(filterOff))
	binary.LittleEndian.PutUint32(footer[8:], uint32(b.count))
	binary.LittleEndian.PutUint32(footer[12:], tableMagic)
	b.buf.Write(footer[:])
	return b.buf.Bytes()
}

// randomEntries returns up to max sorted unique keys with random values,
// tombstones (nil) and empty values among them.
func randomEntries(rng *rand.Rand, max int) (keys, values [][]byte) {
	seen := map[string]bool{}
	n := 1 + rng.Intn(max)
	var ks []string
	for len(ks) < n {
		k := fmt.Sprintf("k%0*d", 1+rng.Intn(12), rng.Intn(1<<20))
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	for _, k := range ks {
		keys = append(keys, []byte(k))
		switch rng.Intn(8) {
		case 0:
			values = append(values, nil)
		case 1:
			values = append(values, []byte{})
		default:
			v := make([]byte, rng.Intn(300))
			rng.Read(v)
			values = append(values, v)
		}
	}
	return keys, values
}

// TestTableBuilderMatchesBufferBuilder builds random tables with one reused
// builder and checks each blob byte for byte against the oracle, and its
// metadata against a parse of that blob.
func TestTableBuilderMatchesBufferBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tb tableBuilder
	for trial := 0; trial < 200; trial++ {
		keys, values := randomEntries(rng, 400)
		tb.reset()
		var ref bufferBuilder
		for i := range keys {
			tb.add(keys[i], values[i])
			ref.add(keys[i], values[i])
		}
		blob, meta := tb.finish()
		if want := ref.finish(); !bytes.Equal(blob, want) {
			t.Fatalf("trial %d (%d entries): blob differs from the bytes.Buffer builder", trial, len(keys))
		}
		parsed, err := parseTable(blob)
		if err != nil {
			t.Fatal(err)
		}
		meta.filter, parsed.filter = nil, nil // filter bytes are covered by the blob
		if !reflect.DeepEqual(meta, parsed) {
			t.Fatalf("trial %d: meta %+v, parsed %+v", trial, meta, parsed)
		}
	}
}

// TestTableBuilderOwnership builds table A, keeps its blob and metadata,
// then resets the builder and builds a larger table B: nothing of A may
// change, because the backend and tableMeta keep A's slices.
func TestTableBuilderOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var tb tableBuilder
	keysA, valuesA := randomEntries(rng, 200)
	for i := range keysA {
		tb.add(keysA[i], valuesA[i])
	}
	blobA, metaA := tb.finish()
	if len(blobA) != cap(blobA) {
		t.Errorf("blob len %d != cap %d", len(blobA), cap(blobA))
	}
	copyA := append([]byte(nil), blobA...)
	firstA := append([]byte(nil), metaA.firstKey...)
	lastA := append([]byte(nil), metaA.lastKey...)

	tb.reset()
	keysB, valuesB := randomEntries(rng, 2000)
	for i := range keysB {
		tb.add(keysB[i], valuesB[i])
	}
	blobB, _ := tb.finish()
	if len(blobB) != cap(blobB) {
		t.Errorf("blob len %d != cap %d", len(blobB), cap(blobB))
	}

	if !bytes.Equal(blobA, copyA) {
		t.Fatal("building B rewrote A's blob")
	}
	if !bytes.Equal(metaA.firstKey, firstA) || !bytes.Equal(metaA.lastKey, lastA) {
		t.Fatalf("building B changed A's key range to %q..%q", metaA.firstKey, metaA.lastKey)
	}
	parsed, err := parseTable(blobA)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.entries != len(keysA) || !bytes.Equal(parsed.firstKey, firstA) ||
		!bytes.Equal(parsed.lastKey, lastA) || !reflect.DeepEqual(parsed.index, metaA.index) {
		t.Fatalf("A no longer round-trips: %v vs %v", parsed, metaA)
	}
}

// oldScatterAlloc is ScatterFit's picker before it stopped building a
// candidate slice, kept as the oracle for the extent it chooses.
func oldScatterAlloc(b *ConvBackend, pages int64) (int64, bool) {
	var candidates []int
	for i := range b.free {
		if b.free[i].pages >= pages {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	b.rngState ^= b.rngState << 13
	b.rngState ^= b.rngState >> 7
	b.rngState ^= b.rngState << 17
	i := candidates[b.rngState%uint64(len(candidates))]
	start := b.free[i].start
	b.free[i].start += pages
	b.free[i].pages -= pages
	if b.free[i].pages == 0 {
		b.free = append(b.free[:i], b.free[i+1:]...)
	}
	return start, true
}

// TestScatterFitMatchesCandidateSlice drives random alloc/free sequences on
// two allocators, one through alloc and one through the oracle: every
// choice, the generator state and the free list must stay identical.
func TestScatterFitMatchesCandidateSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		fresh := func() *ConvBackend {
			return &ConvBackend{policy: ScatterFit, rngState: 0x9e3779b97f4a7c15,
				free: []extent{{start: 0, pages: 4096}}}
		}
		got, want := fresh(), fresh()
		var live []extent
		for op := 0; op < 2000; op++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				got.freeExtent(live[i])
				want.freeExtent(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				pages := int64(1 + rng.Intn(96))
				gs, gok := got.alloc(pages)
				ws, wok := oldScatterAlloc(want, pages)
				if gs != ws || gok != wok {
					t.Fatalf("trial %d op %d: alloc(%d) = (%d,%v), oracle (%d,%v)", trial, op, pages, gs, gok, ws, wok)
				}
				if gok {
					live = append(live, extent{start: gs, pages: pages})
				}
			}
			if got.rngState != want.rngState || !reflect.DeepEqual(got.free, want.free) {
				t.Fatalf("trial %d op %d: allocator state diverged", trial, op)
			}
		}
	}
}
