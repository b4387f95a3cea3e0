// Package stats provides the measurement primitives shared by all
// experiments: latency distributions with exact percentiles, log-bucketed
// histograms for long runs, and counter groups for byte/operation
// accounting.
//
// Percentile reporting follows the convention of the storage literature:
// P50/P90/P99/P999 computed by the nearest-rank method over the recorded
// samples.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"blockhead/internal/sim"
)

// Dist records a distribution of latency samples and computes summary
// statistics. The zero value is ready to use.
type Dist struct {
	samples []sim.Time
	sum     sim.Time
	max     sim.Time
	min     sim.Time
	sorted  bool
}

// NewDist returns an empty distribution with capacity hint n.
func NewDist(n int) *Dist {
	return &Dist{samples: make([]sim.Time, 0, n)}
}

// Add records one sample.
func (d *Dist) Add(v sim.Time) {
	if len(d.samples) == 0 || v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
	d.sum += v
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Count reports the number of recorded samples.
func (d *Dist) Count() int { return len(d.samples) }

// Mean reports the arithmetic mean, or 0 with no samples.
func (d *Dist) Mean() sim.Time {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / sim.Time(len(d.samples))
}

// Max reports the largest sample, or 0 with no samples.
func (d *Dist) Max() sim.Time { return d.max }

// Min reports the smallest sample, or 0 with no samples.
func (d *Dist) Min() sim.Time {
	if len(d.samples) == 0 {
		return 0
	}
	return d.min
}

// Percentile reports the p-th percentile (0 < p <= 100) by nearest rank.
// It returns 0 with no samples.
func (d *Dist) Percentile(p float64) sim.Time {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	if !d.sorted {
		sort.Slice(d.samples, func(i, j int) bool { return d.samples[i] < d.samples[j] })
		d.sorted = true
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.samples[rank-1]
}

// Summary bundles the statistics reported in experiment tables.
type Summary struct {
	Count int
	Mean  sim.Time
	P50   sim.Time
	P90   sim.Time
	P99   sim.Time
	P999  sim.Time
	Max   sim.Time
}

// Summary computes the full summary.
func (d *Dist) Summary() Summary {
	return Summary{
		Count: d.Count(),
		Mean:  d.Mean(),
		P50:   d.Percentile(50),
		P90:   d.Percentile(90),
		P99:   d.Percentile(99),
		P999:  d.Percentile(99.9),
		Max:   d.Max(),
	}
}

// String formats the summary with microsecond precision.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus p999=%.1fus max=%.1fus",
		s.Count, s.Mean.Micros(), s.P50.Micros(), s.P90.Micros(), s.P99.Micros(), s.P999.Micros(), s.Max.Micros())
}

// Reset discards all samples.
func (d *Dist) Reset() {
	d.samples = d.samples[:0]
	d.sum, d.max, d.min = 0, 0, 0
	d.sorted = false
}

// Histogram is a log2-bucketed latency histogram for runs too long to keep
// exact samples. Bucket i covers [2^i, 2^(i+1)) nanoseconds.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     sim.Time
	max     sim.Time
}

// Add records one sample (negative samples count into bucket 0).
func (h *Histogram) Add(v sim.Time) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

func bucketOf(v sim.Time) int {
	if v <= 0 {
		return 0
	}
	return 63 - bits.LeadingZeros64(uint64(v))
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Max reports the largest sample.
func (h *Histogram) Max() sim.Time { return h.max }

// Percentile reports an upper bound on the p-th percentile: the upper edge
// of the bucket holding the nearest-rank sample.
func (h *Histogram) Percentile(p float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.count) / 100))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			return sim.Time(1) << uint(i+1)
		}
	}
	return h.max
}

// Delta returns the histogram of samples recorded since prev was captured.
// All fields but max are monotonic, so the subtraction is exact; max cannot
// be recovered from a cumulative pair, so the delta's max is the upper edge
// of its highest non-empty bucket (an upper bound), or the cumulative max
// when that bucket is the cumulative max's own bucket.
func (h Histogram) Delta(prev Histogram) Histogram {
	d := Histogram{count: h.count - prev.count, sum: h.sum - prev.sum}
	top := -1
	for i := range h.buckets {
		d.buckets[i] = h.buckets[i] - prev.buckets[i]
		if d.buckets[i] > 0 {
			top = i
		}
	}
	if top >= 0 {
		if bucketOf(h.max) == top {
			d.max = h.max
		} else {
			d.max = sim.Time(1) << uint(top+1)
		}
	}
	return d
}

// Counters tracks the byte- and operation-level accounting every device
// model exposes. Write amplification, PCIe traffic, and DRAM footprints in
// the experiment tables are all derived from these fields.
type Counters struct {
	// Host-visible traffic (what the application asked for).
	HostWritePages uint64
	HostReadPages  uint64

	// Flash-level traffic (what physically happened).
	FlashProgramPages uint64
	FlashReadPages    uint64
	BlockErases       uint64

	// GC work attributable to reclamation (subset of the flash counters).
	GCCopyPages uint64

	// Bytes crossing the host interface (PCIe). Simple-copy operations move
	// data without contributing here; that is the point of E10.
	PCIeBytes uint64
}

// WriteAmp reports flash programs per host write. Returns +Inf if data was
// programmed with no host writes, and 1.0 for an idle device.
func (c *Counters) WriteAmp() float64 {
	if c.HostWritePages == 0 {
		if c.FlashProgramPages == 0 {
			return 1.0
		}
		return math.Inf(1)
	}
	return float64(c.FlashProgramPages) / float64(c.HostWritePages)
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.HostWritePages += other.HostWritePages
	c.HostReadPages += other.HostReadPages
	c.FlashProgramPages += other.FlashProgramPages
	c.FlashReadPages += other.FlashReadPages
	c.BlockErases += other.BlockErases
	c.GCCopyPages += other.GCCopyPages
	c.PCIeBytes += other.PCIeBytes
}

// Rate is a throughput helper: ops (or bytes) per virtual second.
func Rate(n uint64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}

// MiB converts bytes to MiB.
func MiB(b uint64) float64 { return float64(b) / (1 << 20) }
