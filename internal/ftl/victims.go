package ftl

import (
	"math/bits"

	"blockhead/internal/sim"
)

// victimIndex holds the GC candidates bucketed by valid-page count, so
// victim selection never scans the whole device. Each bucket is an
// intrusive doubly linked list threaded through per-block next/prev links
// allocated once in New: moving a block between buckets is O(1) and the
// page path allocates nothing.
//
// Invariant: key[b] equals Device.victimKey(b) for every block — the
// block's valid-page count while it is a candidate, -1 otherwise — and b
// sits on bucket key[b]'s list exactly when key[b] >= 0. Device.reindex
// restores it after every mutation that can change a block's key.
//
//simlint:shared the bucket heads span every LUN because GC picks its victim device-wide; like the rest of the conventional FTL's state this stays on a single shard
type victimIndex struct {
	key      []int32  // per block: bucket, or -1 when not a candidate
	next     []int32  // per block: next block in the bucket, -1 at the tail
	prev     []int32  // per block: previous block in the bucket, -1 at the head
	head     []int32  // per bucket (valid count 0..pages-1): first block, or -1
	nonEmpty []uint64 // bit k set iff bucket k is non-empty
}

func newVictimIndex(blocks, pages int) victimIndex {
	x := victimIndex{
		key:      make([]int32, blocks),
		next:     make([]int32, blocks),
		prev:     make([]int32, blocks),
		head:     make([]int32, pages),
		nonEmpty: make([]uint64, (pages+63)/64),
	}
	x.reset()
	return x
}

// reset empties every bucket.
func (x *victimIndex) reset() {
	for b := range x.key {
		x.key[b], x.next[b], x.prev[b] = -1, -1, -1
	}
	for k := range x.head {
		x.head[k] = -1
	}
	for w := range x.nonEmpty {
		x.nonEmpty[w] = 0
	}
}

// set moves block b to bucket k (-1 removes it from the index).
func (x *victimIndex) set(b int, k int32) {
	if old := x.key[b]; old >= 0 {
		n, p := x.next[b], x.prev[b]
		if p >= 0 {
			x.next[p] = n
		} else {
			x.head[old] = n
			if n < 0 {
				x.nonEmpty[old/64] &^= 1 << (old % 64)
			}
		}
		if n >= 0 {
			x.prev[n] = p
		}
	}
	x.key[b] = k
	if k < 0 {
		x.next[b], x.prev[b] = -1, -1
		return
	}
	h := x.head[k]
	x.next[b], x.prev[b] = h, -1
	if h >= 0 {
		x.prev[h] = int32(b)
	}
	x.head[k] = int32(b)
	x.nonEmpty[k/64] |= 1 << (k % 64)
}

// lowest returns the lowest non-empty bucket, or -1 if the index is empty.
func (x *victimIndex) lowest() int {
	for w, word := range x.nonEmpty {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// victimKey derives block b's index key from scratch: its valid-page count
// if it is a GC candidate, -1 otherwise. A candidate is not bad, not free,
// not an open host or GC frontier, not held by an in-progress reclaim
// (gcVictim, reclaiming), and either fully written or sealed by crash
// recovery (a torn frontier GC must be able to reclaim); a block whose
// every page is valid has nothing to give back and is left out too.
func (d *Device) victimKey(b int) int32 {
	if d.frontBit[b] || d.isFree(b) || b == d.gcVictim || b == d.reclaiming || d.chip.IsBad(b) {
		return -1
	}
	if d.chip.WrittenPages(b) < d.pages && !d.chip.IsSealed(b) {
		return -1
	}
	if v := d.valid[b]; v < int64(d.pages) {
		return int32(v)
	}
	return -1
}

// reindex re-derives block b's membership in the victim index. It is
// idempotent and cheap when nothing changed, so every site that mutates an
// input of victimKey calls it for the affected block.
func (d *Device) reindex(b int) {
	if k := d.victimKey(b); k != d.vix.key[b] {
		d.vix.set(b, k)
	}
}

// rebuildVictimIndex re-derives the whole index in one pass (after Recover
// replaces every piece of volatile state at once).
func (d *Device) rebuildVictimIndex() {
	d.vix.reset()
	for b := range d.vix.key {
		d.reindex(b)
	}
}

// holdVictim takes block b out of the index for a whole foreground reclaim.
// Its valid count falls with every copied page; held out, each page's
// re-derive is an early exit instead of a bucket move.
func (d *Device) holdVictim(b int) {
	d.reclaiming = b
	d.reindex(b)
}

// releaseVictim ends a reclaim. An erased or retired block stays out; one
// whose reclaim stopped part-way re-enters at its current valid count, as
// a full scan would find it.
func (d *Device) releaseVictim(b int) {
	d.reclaiming = -1
	d.reindex(b)
}

// greedyVictim returns the candidate with the fewest valid pages, ties
// broken toward the least-erased block, then the lowest block index. The
// erase count of a candidate never changes while it is indexed (reclaim
// holds its victim out before erasing it, and Recover rebuilds the index),
// so the order is the full scan's.
func (d *Device) greedyVictim() int {
	k := d.vix.lowest()
	if k < 0 {
		return -1
	}
	best := -1
	var bestErase uint32
	for b := d.vix.head[k]; b >= 0; b = d.vix.next[b] {
		e := d.chip.EraseCount(int(b))
		if best < 0 || e < bestErase || (e == bestErase && int(b) < best) {
			best, bestErase = int(b), e
		}
	}
	return best
}

// costBenefitVictim returns the candidate maximizing the LFS cost-benefit
// score age*(1-u)/(2u) — a fully dead block scores age*1e12 — under the
// total order (score desc, erase count asc, block index asc), so the result
// does not depend on the order the buckets list their blocks. Scores depend
// on the pick time, so every candidate is scored; the index only spares the
// scan the non-candidates.
func (d *Device) costBenefitVictim(at sim.Time) int {
	best := -1
	var bestScore float64
	var bestErase uint32
	for w, word := range d.vix.nonEmpty {
		for word != 0 {
			k := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			u := float64(k) / float64(d.pages)
			for b := d.vix.head[k]; b >= 0; b = d.vix.next[b] {
				age := float64(at-d.lastInval[b]) + 1
				var score float64
				if u == 0 {
					score = age * 1e12 // free lunch: a fully dead block
				} else {
					score = age * (1 - u) / (2 * u)
				}
				e := d.chip.EraseCount(int(b))
				if best < 0 || score > bestScore ||
					(score == bestScore && (e < bestErase || (e == bestErase && int(b) < best))) {
					best, bestScore, bestErase = int(b), score, e
				}
			}
		}
	}
	return best
}
