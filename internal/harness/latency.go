// Package harness holds an HDR-style log-linear latency histogram:
// lock-free to record into, with quantiles inside a documented 1/64
// relative error, so a latency is reported as percentiles rather than
// one aggregate throughput number.
package harness

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucketing: values below subBuckets are recorded exactly;
// above, each power-of-two range is split into subBuckets linear
// buckets, so a bucket's width is at most its lower bound / subBuckets.
// Quantiles report the bucket midpoint, bounding the relative error by
// 1/(2*subBuckets) = 1/64 (≈1.6%) — the documented bound the harness
// tests assert (latency_test.go).
const (
	subBucketBits = 5
	subBuckets    = 1 << subBucketBits
	numBuckets    = (64 - subBucketBits + 1) * subBuckets
)

// Histogram is a fixed-size log-linear latency histogram in
// nanoseconds; the zero value is empty and ready to use. Observe is
// lock-free (one atomic add per sample) and safe for concurrent use;
// quantile reads taken while writers are still observing see a
// consistent-enough prefix, so read them after the workload finishes.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	k := bits.Len64(v)             // v >= 32 ⇒ k >= 6
	shift := k - subBucketBits - 1 // top subBucketBits+1 bits survive
	top := v >> uint(shift)        // in [subBuckets, 2*subBuckets)
	return (k-subBucketBits-1)*subBuckets + int(top)
}

// bucketMid returns the representative (midpoint) value of a bucket.
func bucketMid(index int) uint64 {
	if index < subBuckets {
		return uint64(index)
	}
	g := index >> subBucketBits // = k - subBucketBits, k = bits.Len64(low)
	shift := uint(g - 1)
	low := (uint64(index&(subBuckets-1)) + subBuckets) << shift
	return low + (uint64(1)<<shift)/2
}

// Observe records one latency sample. Negative durations clamp to 0.
func (h *Histogram) Observe(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean of the recorded samples (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the q-th quantile (0 < q ≤ 1) by the nearest-rank
// rule: the value at rank ceil(q·count) of the sorted samples,
// reported as its bucket's midpoint (relative error ≤ 1/64 for values
// ≥ 32ns; exact below). The second result is false when the histogram
// is empty. With a single sample every quantile is that sample's
// bucket.
func (h *Histogram) Quantile(q float64) (time.Duration, bool) {
	total := h.count.Load()
	if total == 0 {
		return 0, false
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			return time.Duration(bucketMid(i)), true
		}
	}
	// Racing writers bumped count before counts[]: report the highest
	// occupied bucket seen.
	for i := numBuckets - 1; i >= 0; i-- {
		if h.counts[i].Load() > 0 {
			return time.Duration(bucketMid(i)), true
		}
	}
	return 0, false
}
