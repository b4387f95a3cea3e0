package zkv

import (
	"encoding/binary"
	"hash/fnv"
)

// bloom is a split-free Bloom filter with double hashing (the
// Kirsch-Mitzenmacher construction LevelDB uses). It keeps point lookups
// for absent keys from touching flash at all: a probe that fails the
// filter skips the table without any I/O.
type bloom struct {
	bits []byte
	k    uint32 // hash functions
}

// bloomBitsPerKey trades memory for false-positive rate; 10 bits/key gives
// ~1% FPR with k = 7, the classic LSM configuration.
const bloomBitsPerKey = 10

// newBloom sizes a filter for n keys.
func newBloom(n int) *bloom {
	if n < 1 {
		n = 1
	}
	bits := n * bloomBitsPerKey
	if bits < 64 {
		bits = 64
	}
	kf := float64(bloomBitsPerKey) * 0.69 // ln 2
	k := uint32(kf)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &bloom{bits: make([]byte, (bits+7)/8), k: k}
}

func bloomHash(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

func (b *bloom) add(key []byte) { b.addHash(bloomHash(key)) }

// addHash adds a key by its bloomHash.
func (b *bloom) addHash(h uint64) {
	h1, h2 := uint32(h), uint32(h>>32)
	n := uint32(len(b.bits) * 8)
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + i*h2) % n
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (b *bloom) mayContain(key []byte) bool {
	if b == nil || len(b.bits) == 0 {
		return true // no filter: cannot exclude
	}
	h := bloomHash(key)
	h1, h2 := uint32(h), uint32(h>>32)
	n := uint32(len(b.bits) * 8)
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + i*h2) % n
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// appendTo appends the serialized filter to dst: k (uvarint) followed by
// the bit array.
func (b *bloom) appendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.k))
	return append(dst, b.bits...)
}

// unmarshalBloom parses a marshaled filter; a nil/empty buffer yields nil
// (no filter).
func unmarshalBloom(buf []byte) (*bloom, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	k, n := binary.Uvarint(buf)
	if n <= 0 || k == 0 || k > 64 {
		return nil, ErrCorrupt
	}
	return &bloom{bits: append([]byte(nil), buf[n:]...), k: uint32(k)}, nil
}
