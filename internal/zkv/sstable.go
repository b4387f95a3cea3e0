package zkv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// SSTable blob layout:
//
//	entries:  (uvarint klen | uvarint vlen+1 | key | value)*   vlen+1==0 -> tombstone
//	index:    (uvarint klen | key | uvarint byteOff)*           one per checkpoint
//	filter:   uvarint k | bloom bit array
//	footer:   uint32 indexOff | uint32 filterOff | uint32 entryCount | uint32 magic
//
// A sparse in-memory index (one checkpoint per ~indexInterval bytes of
// entries, always at an entry boundary) and a Bloom filter are kept per
// table for point lookups; the serialized copies make the blob
// self-describing.
const (
	tableMagic    = 0x5a4b5632 // "ZKV2"
	indexInterval = 4096
	footerSize    = 16
)

// ErrCorrupt reports a malformed table blob.
var ErrCorrupt = errors.New("zkv: corrupt sstable")

type indexEntry struct {
	key []byte
	off int
}

// tableMeta is the in-memory handle to one SSTable.
type tableMeta struct {
	handle   TableHandle
	level    int
	sizeB    int
	entries  int
	firstKey []byte
	lastKey  []byte
	index    []indexEntry // sparse, ascending
	indexOff int          // byte offset where entries end
	filter   *bloom       // per-table Bloom filter (may be nil)
	seq      uint64       // creation sequence; larger = newer (L0 ordering)
}

// tableBuilder accumulates sorted entries into a blob. A DB keeps one and
// resets it between tables: the entry buffer, the key hashes and the
// last-key scratch keep their capacity, while everything a tableMeta or
// the backend keeps (the blob, the index, the first and last keys, the
// filter) is allocated fresh for each table.
type tableBuilder struct {
	buf     []byte   // entry region
	tail    []byte   // index, filter and footer, assembled by finish
	hashes  []uint64 // bloomHash of every key, for the filter
	last    []byte
	index   []indexEntry
	first   []byte
	count   int
	nextIdx int
}

// reset empties the builder for the next table, keeping its scratch.
func (b *tableBuilder) reset() {
	b.buf = b.buf[:0]
	b.tail = b.tail[:0]
	b.hashes = b.hashes[:0]
	b.last = b.last[:0]
	b.index = nil
	b.first = nil
	b.count = 0
	b.nextIdx = 0
}

// add appends an entry; keys must arrive in strictly increasing order.
func (b *tableBuilder) add(key, value []byte) {
	if b.count > 0 && bytes.Compare(key, b.last) <= 0 {
		panic("zkv: tableBuilder keys out of order")
	}
	if len(b.buf) >= b.nextIdx {
		k := append([]byte(nil), key...)
		b.index = append(b.index, indexEntry{key: k, off: len(b.buf)})
		b.nextIdx = len(b.buf) + indexInterval
	}
	vlen := uint64(0)
	if value != nil {
		vlen = uint64(len(value)) + 1
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)))
	b.buf = binary.AppendUvarint(b.buf, vlen)
	b.buf = append(b.buf, key...)
	b.buf = append(b.buf, value...)
	if b.count == 0 {
		b.first = append([]byte(nil), key...)
	}
	b.last = append(b.last[:0], key...)
	b.hashes = append(b.hashes, bloomHash(key))
	b.count++
}

// empty reports whether nothing has been added.
func (b *tableBuilder) empty() bool { return b.count == 0 }

// sizeEstimate reports the current entry-region size.
func (b *tableBuilder) sizeEstimate() int { return len(b.buf) }

// finish serializes the blob and returns it with the table's metadata
// (handle and level are filled in by the caller after the backend write).
// The blob is a fresh allocation of exactly its size, so the backend may
// keep it while the builder is reset and reused.
func (b *tableBuilder) finish() ([]byte, *tableMeta) {
	indexOff := len(b.buf)
	tail := b.tail[:0]
	for _, ie := range b.index {
		tail = binary.AppendUvarint(tail, uint64(len(ie.key)))
		tail = append(tail, ie.key...)
		tail = binary.AppendUvarint(tail, uint64(ie.off))
	}
	filterOff := indexOff + len(tail)
	filter := newBloom(b.count)
	for _, h := range b.hashes {
		filter.addHash(h)
	}
	tail = filter.appendTo(tail)
	tail = binary.LittleEndian.AppendUint32(tail, uint32(indexOff))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(filterOff))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(b.count))
	tail = binary.LittleEndian.AppendUint32(tail, tableMagic)
	b.tail = tail
	blob := make([]byte, indexOff+len(tail))
	copy(blob[copy(blob, b.buf):], tail)
	meta := &tableMeta{
		sizeB:    len(blob),
		entries:  b.count,
		firstKey: b.first,
		lastKey:  append([]byte(nil), b.last...),
		index:    b.index,
		indexOff: indexOff,
		filter:   filter,
	}
	return blob, meta
}

// parseTable reconstructs metadata from a blob — used on "open" and in
// tests to prove the format is self-describing.
func parseTable(blob []byte) (*tableMeta, error) {
	if len(blob) < footerSize {
		return nil, ErrCorrupt
	}
	f := blob[len(blob)-footerSize:]
	if binary.LittleEndian.Uint32(f[12:]) != tableMagic {
		return nil, ErrCorrupt
	}
	indexOff := int(binary.LittleEndian.Uint32(f[0:]))
	filterOff := int(binary.LittleEndian.Uint32(f[4:]))
	count := int(binary.LittleEndian.Uint32(f[8:]))
	if indexOff > filterOff || filterOff > len(blob)-footerSize {
		return nil, ErrCorrupt
	}
	meta := &tableMeta{sizeB: len(blob), entries: count, indexOff: indexOff}
	filter, err := unmarshalBloom(blob[filterOff : len(blob)-footerSize])
	if err != nil {
		return nil, err
	}
	meta.filter = filter
	// Index region.
	idx := blob[indexOff:filterOff]
	for len(idx) > 0 {
		klen, n := binary.Uvarint(idx)
		if n <= 0 || int(klen) > len(idx)-n {
			return nil, ErrCorrupt
		}
		key := append([]byte(nil), idx[n:n+int(klen)]...)
		idx = idx[n+int(klen):]
		off, n := binary.Uvarint(idx)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		idx = idx[n:]
		meta.index = append(meta.index, indexEntry{key: key, off: int(off)})
	}
	// First/last keys from the entry region.
	it := newBlobIter(blob[:indexOff])
	for it.next() {
		if meta.firstKey == nil {
			meta.firstKey = append([]byte(nil), it.key...)
		}
		meta.lastKey = append(meta.lastKey[:0], it.key...)
	}
	if it.err != nil {
		return nil, it.err
	}
	return meta, nil
}

// blobIter walks the entry region of a blob sequentially.
type blobIter struct {
	data  []byte
	key   []byte
	value []byte // nil for tombstones
	err   error
}

func newBlobIter(entryRegion []byte) *blobIter { return &blobIter{data: entryRegion} }

func (it *blobIter) next() bool {
	if len(it.data) == 0 || it.err != nil {
		return false
	}
	klen, n := binary.Uvarint(it.data)
	if n <= 0 {
		it.err = ErrCorrupt
		return false
	}
	it.data = it.data[n:]
	vlenPlus, n := binary.Uvarint(it.data)
	if n <= 0 {
		it.err = ErrCorrupt
		return false
	}
	it.data = it.data[n:]
	if int(klen) > len(it.data) {
		it.err = ErrCorrupt
		return false
	}
	it.key = it.data[:klen]
	it.data = it.data[klen:]
	if vlenPlus == 0 {
		it.value = nil
		return true
	}
	vlen := int(vlenPlus - 1)
	if vlen > len(it.data) {
		it.err = ErrCorrupt
		return false
	}
	it.value = it.data[:vlen]
	it.data = it.data[vlen:]
	return true
}

// chunkFor returns the byte range [lo, hi) of the entry region that can
// contain key, based on the sparse index.
func (t *tableMeta) chunkFor(key []byte) (lo, hi int) {
	if len(t.index) == 0 {
		return 0, t.indexOff
	}
	// Greatest checkpoint with index key <= key.
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, key) > 0
	}) - 1
	if i < 0 {
		return 0, 0 // key precedes the table
	}
	lo = t.index[i].off
	if i+1 < len(t.index) {
		hi = t.index[i+1].off
	} else {
		hi = t.indexOff
	}
	return lo, hi
}

// mayContain is the cheap range test used before any I/O.
func (t *tableMeta) mayContain(key []byte) bool {
	return bytes.Compare(key, t.firstKey) >= 0 && bytes.Compare(key, t.lastKey) <= 0
}

// String implements fmt.Stringer.
func (t *tableMeta) String() string {
	return fmt.Sprintf("table{L%d %dB %d entries [%q..%q]}",
		t.level, t.sizeB, t.entries, t.firstKey, t.lastKey)
}
