package ftl

import (
	"fmt"
	"math/rand"
	"testing"

	"blockhead/internal/fault"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
)

// oracleIsFrontier reports whether block is an open write frontier by
// scanning every frontier — the index's frontBit flag must agree.
func oracleIsFrontier(d *Device, block int) bool {
	for _, fronts := range d.hostFront {
		for i := range fronts {
			if fronts[i].block == block {
				return true
			}
		}
	}
	for i := range d.gcFront {
		if d.gcFront[i].block == block {
			return true
		}
	}
	return false
}

// oracleVictim is the full-device linear scan the candidate index
// replaced, kept verbatim as the differential oracle: only closed,
// non-frontier, non-free blocks are candidates — fully-written blocks plus
// partially-written blocks sealed by crash recovery — and ties break
// toward the least-erased block, then scan position.
func oracleVictim(d *Device, at sim.Time) int {
	best := -1
	var bestValid int64
	var bestScore float64
	for b := 0; b < d.geom.TotalBlocks(); b++ {
		if d.chip.IsBad(b) || d.isFree(b) || oracleIsFrontier(d, b) || b == d.gcVictim {
			continue
		}
		if d.chip.WrittenPages(b) < d.pages && !d.chip.IsSealed(b) {
			continue
		}
		v := d.valid[b]
		if v >= int64(d.pages) {
			continue // nothing to gain
		}
		switch d.cfg.GCPolicy {
		case CostBenefit:
			u := float64(v) / float64(d.pages)
			age := float64(at-d.lastInval[b]) + 1
			var score float64
			if u == 0 {
				score = age * 1e12 // free lunch: a fully dead block
			} else {
				score = age * (1 - u) / (2 * u)
			}
			if best < 0 || score > bestScore ||
				(score == bestScore && d.chip.EraseCount(b) < d.chip.EraseCount(best)) {
				best, bestScore = b, score
			}
		default: // Greedy
			if best < 0 || v < bestValid ||
				(v == bestValid && d.chip.EraseCount(b) < d.chip.EraseCount(best)) {
				best, bestValid = b, v
			}
		}
	}
	return best
}

// oracleKey derives block b's index key from scratch with the oracle's
// candidate predicate: its valid count if the scan would consider it, -1
// otherwise.
func oracleKey(d *Device, b int) int32 {
	if d.chip.IsBad(b) || d.isFree(b) || oracleIsFrontier(d, b) || b == d.gcVictim || b == d.reclaiming {
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

// checkVictimIndex rebuilds the index's keys from scratch and requires the
// live index to match them, with every bucket list well formed: each
// listed block carries its bucket's key, prev links mirror next links, the
// non-empty bitmap matches the heads, and the lists hold every candidate
// exactly once.
func checkVictimIndex(t testing.TB, d *Device) {
	t.Helper()
	if d.reclaiming != -1 {
		t.Fatalf("reclaim hold leaked: block %d", d.reclaiming)
	}
	x := &d.vix
	members := 0
	for b := range x.key {
		want := oracleKey(d, b)
		if x.key[b] != want {
			t.Fatalf("block %d: index key %d, rebuilt from scratch %d", b, x.key[b], want)
		}
		if want >= 0 {
			members++
		}
	}
	listed := 0
	for k := range x.head {
		if set := x.nonEmpty[k/64]>>(k%64)&1 == 1; set != (x.head[k] >= 0) {
			t.Fatalf("bucket %d: non-empty bit %v, head %d", k, set, x.head[k])
		}
		prev := int32(-1)
		for b := x.head[k]; b >= 0; b = x.next[b] {
			if x.key[b] != int32(k) || x.prev[b] != prev {
				t.Fatalf("bucket %d: block %d has key %d prev %d, want prev %d", k, b, x.key[b], x.prev[b], prev)
			}
			if listed++; listed > members {
				t.Fatalf("bucket lists hold more than the %d candidates", members)
			}
			prev = b
		}
	}
	if listed != members {
		t.Fatalf("bucket lists hold %d blocks, %d candidates", listed, members)
	}
}

// victimCase is one point of the differential matrix.
type victimCase struct {
	policy  GCPolicy
	mode    GCMode
	streams int
	hotCold bool
	profile string
}

// caseOf decodes the five low bits of c into a matrix point.
func caseOf(c uint8) victimCase {
	vc := victimCase{policy: Greedy, mode: GCForeground, streams: 1, profile: "default"}
	if c&1 != 0 {
		vc.policy = CostBenefit
	}
	if c&2 != 0 {
		vc.mode = GCDeviceIncremental
	}
	if c&4 != 0 {
		vc.streams = 3
	}
	vc.hotCold = c&8 != 0
	if c&16 != 0 {
		vc.profile = "aggressive"
	}
	return vc
}

func (c victimCase) String() string {
	return fmt.Sprintf("%v/%v/streams=%d/hotcold=%v/%s", c.policy, c.mode, c.streams, c.hotCold, c.profile)
}

// runVictimChurn fills a small 0%-OP device with recovery armed and the
// case's fault profile injected, then overwrites it at random (80% of
// writes to a hot fifth of the space, with occasional trims), crashing and
// recovering before op crashIdx. Every victim pick is checked against the
// full-scan oracle and the whole index against a from-scratch rebuild
// after every op. Returns the number of picks checked.
func runVictimChurn(t testing.TB, c victimCase, seed int64, ops, crashIdx int) (picks int) {
	t.Helper()
	prof, ok := fault.ProfileByName(c.profile)
	if !ok {
		t.Fatalf("unknown fault profile %q", c.profile)
	}
	d, err := New(Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 4096},
		Lat:               flash.LatenciesFor(flash.TLC),
		GCPolicy:          c.policy,
		GCMode:            c.mode,
		Streams:           c.streams,
		HotColdSeparation: c.hotCold,
		TrimSupported:     true,
		Recovery:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetInjector(fault.New(prof, seed))
	op := 0
	d.pickCheck = func(at sim.Time, got int) {
		if want := oracleVictim(d, at); got != want {
			t.Fatalf("%v seed=%d op %d: index picked block %d, full scan picks %d", c, seed, op, got, want)
		}
		picks++
	}
	rng := rand.New(rand.NewSource(seed))
	capacity := d.CapacityPages()
	hot := capacity / 5
	var at, issued sim.Time
	for ; op < ops; op++ {
		if op == crashIdx {
			// Pull the plug halfway through the last write, tearing it and
			// any relocation still in flight.
			rep, err := d.Recover(issued + (at-issued)/2)
			if err != nil {
				t.Fatal(err)
			}
			at = rep.RecoveredAt
			checkVictimIndex(t, d)
		}
		switch r := rng.Intn(100); {
		case int64(op) >= capacity && r < 3:
			n := 1 + rng.Int63n(16)
			lpn := rng.Int63n(capacity - n)
			if err := d.Trim(at, lpn, n); err != nil {
				t.Fatal(err)
			}
		default:
			lpn := int64(op)
			if lpn >= capacity {
				lpn = rng.Int63n(capacity)
				if r < 80 {
					lpn = rng.Int63n(hot)
				}
			}
			issued = at
			// Faults may retire enough blocks to exhaust the device; the
			// index must stay exact whatever the write reports.
			if done, err := d.WritePageStream(at, lpn, rng.Intn(c.streams), nil); err == nil {
				at = done
			}
		}
		checkVictimIndex(t, d)
	}
	return picks
}

// TestVictimIndexMatchesScan is the candidate index's differential
// property: across every combination of GC policy, GC mode, stream count,
// hot/cold separation and fault profile — each with a crash and recovery
// mid-run — the index picks exactly the victim the full-device scan picks,
// at every pick, and matches a from-scratch rebuild after every op.
func TestVictimIndexMatchesScan(t *testing.T) {
	for i := uint8(0); i < 32; i++ {
		c := caseOf(i)
		t.Run(c.String(), func(t *testing.T) {
			const ops = 5000
			seed := int64(100 + i)
			if picks := runVictimChurn(t, c, seed, ops, ops/2+int(i)*17); picks < 100 {
				t.Fatalf("only %d victim picks checked; churn too light to exercise GC", picks)
			}
		})
	}
}

// FuzzVictimIndex fuzzes the (seed, matrix point, crash point) space of the
// differential property. The seed corpus pins a crash during the initial
// fill, crashes in GC-heavy steady state for both policies and both modes,
// multi-stream runs with and without hot/cold separation, and the
// aggressive profile that grows bad blocks mid-run.
func FuzzVictimIndex(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(400))   // greedy foreground, crash mid-fill
	f.Add(int64(2), uint8(9), uint16(2100))  // cost-benefit, hot/cold, steady-state crash
	f.Add(int64(3), uint8(6), uint16(1800))  // incremental, 3 streams
	f.Add(int64(4), uint8(15), uint16(2400)) // cost-benefit incremental, 3 streams, hot/cold
	f.Add(int64(5), uint8(26), uint16(1900)) // incremental, hot/cold, aggressive faults
	f.Add(int64(6), uint8(31), uint16(0))    // every knob on, crash on the first op
	f.Fuzz(func(t *testing.T, seed int64, combo uint8, crashAt uint16) {
		const ops = 2500
		runVictimChurn(t, caseOf(combo), seed, ops, int(crashAt)%ops)
	})
}

// TestCostBenefitTieOrder pins CostBenefit's total order (score desc, erase
// count asc, block index asc): several fully dead blocks of the same age
// tie at age*1e12, and the pick must be the least-erased, lowest-indexed
// of them whatever order their bucket lists them in.
func TestCostBenefitTieOrder(t *testing.T) {
	cfg := defaultCfg()
	cfg.GCPolicy = CostBenefit
	d := mustNew(t, cfg)
	at := fillSequential(t, d, 0)
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < 4*d.CapacityPages(); i++ { // spread the erase counts
		var err error
		if at, err = d.WritePage(at, rng.Int63n(d.CapacityPages()), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Kill every page at one instant and give every block that instant as
	// its last invalidation: all candidates are fully dead, the same age.
	if err := d.Trim(at, 0, d.CapacityPages()); err != nil {
		t.Fatal(err)
	}
	for b := range d.lastInval {
		d.lastInval[b] = at
	}
	var cands []int
	erases := map[uint32]bool{}
	want := -1
	for b := 0; b < d.geom.TotalBlocks(); b++ {
		if oracleKey(d, b) != 0 {
			continue
		}
		cands = append(cands, b)
		erases[d.chip.EraseCount(b)] = true
		if want < 0 || d.chip.EraseCount(b) < d.chip.EraseCount(want) {
			want = b
		}
	}
	if len(cands) < 3 || len(erases) < 2 {
		t.Fatalf("setup: %d dead candidates over %d erase counts; want >= 3 over >= 2", len(cands), len(erases))
	}
	pickAt := at + sim.Millisecond
	check := func(order string) {
		t.Helper()
		if got := d.pickVictim(pickAt); got != want {
			t.Errorf("%s: picked block %d (erases %d), want %d (erases %d)",
				order, got, d.chip.EraseCount(got), want, d.chip.EraseCount(want))
		}
	}
	check("as indexed")
	if got := oracleVictim(d, pickAt); got != want {
		t.Errorf("oracle scan picked %d, want %d", got, want)
	}
	// Re-thread bucket 0 in ascending, then descending, block order.
	for _, b := range cands {
		d.vix.set(b, -1)
	}
	for _, b := range cands {
		d.vix.set(b, 0) // pushes at the head: the list ends up descending
	}
	check("descending list")
	for _, b := range cands {
		d.vix.set(b, -1)
	}
	for i := len(cands) - 1; i >= 0; i-- {
		d.vix.set(cands[i], 0)
	}
	check("ascending list")
	checkVictimIndex(t, d)
}

// TestWritePageSteadyStateZeroAllocs pins the page path's allocation-free
// steady state: on E2's geometry and calibration at 0% OP, after ageing,
// host writes that trigger GC — victim picks, relocations, erases and the
// candidate index's bookkeeping — allocate nothing.
func TestWritePageSteadyStateZeroAllocs(t *testing.T) {
	d := e2CalibrationDev(t)
	at := fillSequential(t, d, 0)
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < d.CapacityPages(); i++ { // age
		var err error
		if at, err = d.WritePage(at, rng.Int63n(d.CapacityPages()), nil); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]int64, 1001)
	for i := range keys {
		keys[i] = rng.Int63n(d.CapacityPages())
	}
	runs, i := d.GCRuns(), 0
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if at, err = d.WritePage(at, keys[i], nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if d.GCRuns() == runs {
		t.Fatal("no GC ran during the measured writes")
	}
	if allocs != 0 {
		t.Errorf("WritePage at GC steady state: %v allocs/op, want 0", allocs)
	}
}

// e2CalibrationDev builds the device E2's 0%-OP point runs: 4 LUNs of 128
// blocks x 64 pages, 4.2% reserve, hot/cold separation and trim on.
func e2CalibrationDev(tb testing.TB) *Device {
	tb.Helper()
	d, err := New(Config{
		Geom: flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerLUN: 128, PagesPerBlock: 64, PageSize: 4096},
		Lat:               flash.LatenciesFor(flash.TLC),
		ReserveFraction:   0.042,
		HotColdSeparation: true,
		TrimSupported:     true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestFailedReclaimRestoresVictim: a reclaim that cannot finish — here every
// relocation program fails, retiring destinations until GC space runs out —
// must put its victim back in the index at its current valid count, as a
// full scan would find it, in both GC modes.
func TestFailedReclaimRestoresVictim(t *testing.T) {
	for _, mode := range []GCMode{GCForeground, GCDeviceIncremental} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := defaultCfg()
			cfg.GCMode = mode
			d := mustNew(t, cfg)
			at := fillSequential(t, d, 0)
			rng := rand.New(rand.NewSource(9))
			for i := int64(0); i < 2*d.CapacityPages(); i++ {
				var err error
				if at, err = d.WritePage(at, rng.Int63n(d.CapacityPages()), nil); err != nil {
					t.Fatal(err)
				}
			}
			d.SetInjector(fault.New(fault.Profile{Name: "programs-fail", ProgramFailBase: 1}, 1))
			v := d.pickVictim(at)
			if v < 0 || d.valid[v] == 0 {
				t.Fatalf("setup: victim %d holds no valid pages to relocate", v)
			}
			if _, ok := d.reclaimVictim(at, v); ok {
				t.Fatal("reclaim succeeded with every program failing")
			}
			checkVictimIndex(t, d)
			if d.vix.key[v] != int32(d.valid[v]) {
				t.Errorf("victim %d: index key %d after the failed reclaim, want its valid count %d",
					v, d.vix.key[v], d.valid[v])
			}
		})
	}
}
