package harness

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestQuantileKnownDistribution feeds distributions whose true
// quantiles are known in closed form and asserts the histogram's
// answers stay inside the documented 1/64 relative error bound.
func TestQuantileKnownDistribution(t *testing.T) {
	const relBound = 1.0/64 + 1e-9
	t.Run("uniform-1..100000", func(t *testing.T) {
		h := new(Histogram)
		const n = 100000
		for v := 1; v <= n; v++ {
			h.Observe(time.Duration(v))
		}
		for _, q := range []float64{0.50, 0.99, 0.999} {
			truth := math.Ceil(q * n) // nearest-rank over 1..n
			got, ok := h.Quantile(q)
			if !ok {
				t.Fatalf("q=%v: no answer", q)
			}
			if rel := math.Abs(float64(got)-truth) / truth; rel > relBound {
				t.Errorf("q=%v: got %v, true %v (rel err %.4f > 1/64)", q, got, truth, rel)
			}
		}
	})
	t.Run("exponential", func(t *testing.T) {
		// Quantiles of Exp(λ): −ln(1−q)/λ. With 200k samples the
		// empirical quantile is within ~1% of the ideal at p50/p99, so
		// bucketing error plus sampling error stays under 5%.
		h := new(Histogram)
		rng := rand.New(rand.NewSource(42))
		const n, scale = 200000, 50000.0 // mean 50µs
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(rng.ExpFloat64() * scale))
		}
		for _, q := range []float64{0.50, 0.99} {
			truth := -math.Log(1-q) * scale
			got, ok := h.Quantile(q)
			if !ok {
				t.Fatalf("q=%v: no answer", q)
			}
			if rel := math.Abs(float64(got)-truth) / truth; rel > 0.05 {
				t.Errorf("q=%v: got %v, ideal %.0fns (rel err %.4f)", q, got, truth, rel)
			}
		}
	})
	t.Run("small-values-exact", func(t *testing.T) {
		h := new(Histogram)
		for v := 0; v < subBuckets; v++ {
			h.Observe(time.Duration(v))
		}
		if got, _ := h.Quantile(0.5); got != subBuckets/2-1 {
			t.Errorf("p50 over 0..31 = %v, want %d (values below %d are exact)", got, subBuckets/2-1, subBuckets)
		}
		if got, _ := h.Quantile(1); got != subBuckets-1 {
			t.Errorf("p100 over 0..31 = %v, want %d", got, subBuckets-1)
		}
	})
}

// TestQuantileEdgeCases: the empty histogram answers nothing, a single
// sample answers every quantile with itself (to bucket precision), and
// quantile arguments outside (0,1] clamp instead of panicking.
func TestQuantileEdgeCases(t *testing.T) {
	h := new(Histogram)
	if v, ok := h.Quantile(0.5); ok || v != 0 {
		t.Errorf("empty histogram answered %v, %v", v, ok)
	}
	if h.Count() != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram has count=%d mean=%v", h.Count(), h.Mean())
	}

	const sample = 123456 * time.Nanosecond
	h.Observe(sample)
	for _, q := range []float64{-1, 0, 0.5, 0.999, 1, 2} {
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("single-sample q=%v: no answer", q)
		}
		if rel := math.Abs(float64(got-sample)) / float64(sample); rel > 1.0/64 {
			t.Errorf("single-sample q=%v: got %v, want ~%v", q, got, sample)
		}
	}
	if h.Count() != 1 {
		t.Errorf("count = %d", h.Count())
	}

	// Negative durations clamp to zero rather than corrupting a bucket.
	h2 := new(Histogram)
	h2.Observe(-time.Second)
	if got, ok := h2.Quantile(0.5); !ok || got != 0 {
		t.Errorf("negative observation: %v, %v", got, ok)
	}
}

// TestBucketRoundTrip: every bucket's midpoint maps back to the same
// bucket, and indices are monotone in the value — the structural
// invariants the error bound rests on.
func TestBucketRoundTrip(t *testing.T) {
	for i := 0; i < numBuckets; i++ {
		mid := bucketMid(i)
		if back := bucketIndex(mid); back != i {
			t.Fatalf("bucket %d: mid %d maps to bucket %d", i, mid, back)
		}
	}
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx <= prev && v != 0 {
			t.Fatalf("bucketIndex not monotone at %d: %d <= %d", v, idx, prev)
		}
		prev = idx
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("value %d out of bucket range: %d", v, idx)
		}
	}
}
