package workload

import (
	"math"
	"testing"
)

// TestZipfRankFrequency is the property test behind the skewed
// workloads: across seeds and skews, the empirical rank-frequency of a
// large sample must match the configured distribution within a
// tolerance that shrinks-to-significance with the expected count
// (only ranks expecting >= 500 hits are held to the relative bound —
// tail ranks are checked in aggregate instead).
func TestZipfRankFrequency(t *testing.T) {
	const (
		ranks   = 50
		samples = 200000
		relTol  = 0.10
	)
	for _, skew := range []float64{0, 0.8, 1.2, 2.0} {
		for seed := int64(1); seed <= 3; seed++ {
			z, err := NewZipf(seed, ranks, skew)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, ranks)
			for i := 0; i < samples; i++ {
				r := z.Next()
				if r < 0 || r >= ranks {
					t.Fatalf("skew=%v seed=%d: rank %d out of range", skew, seed, r)
				}
				counts[r]++
			}
			tailGot, tailWant := 0.0, 0.0
			for r := 0; r < ranks; r++ {
				want := z.Prob(r) * samples
				if want >= 500 {
					got := float64(counts[r])
					if math.Abs(got-want) > relTol*want {
						t.Errorf("skew=%v seed=%d rank=%d: got %v draws, want %v ±%.0f%%",
							skew, seed, r, got, want, relTol*100)
					}
					continue
				}
				tailGot += float64(counts[r])
				tailWant += want
			}
			if tailWant > 0 && math.Abs(tailGot-tailWant) > relTol*tailWant+50 {
				t.Errorf("skew=%v seed=%d: tail mass got %v draws, want %v",
					skew, seed, tailGot, tailWant)
			}
		}
	}
}

// TestZipfMonotoneMass: higher skew concentrates more mass on rank 0,
// and within one distribution the ranks are non-increasing in
// probability — the shape the skewed ./bench workloads lean on.
func TestZipfMonotoneMass(t *testing.T) {
	prev := -1.0
	for _, skew := range []float64{0, 0.5, 1.0, 1.5, 2.0} {
		z, err := NewZipf(1, 64, skew)
		if err != nil {
			t.Fatal(err)
		}
		p0 := z.Prob(0)
		if p0 <= prev {
			t.Errorf("skew=%v: P(rank0)=%v not above previous %v", skew, p0, prev)
		}
		prev = p0
		for r := 1; r < z.Ranks(); r++ {
			if z.Prob(r) > z.Prob(r-1)+1e-12 {
				t.Fatalf("skew=%v: P(%d)=%v > P(%d)=%v", skew, r, z.Prob(r), r-1, z.Prob(r-1))
			}
		}
		total := 0.0
		for r := 0; r < z.Ranks(); r++ {
			total += z.Prob(r)
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("skew=%v: pmf sums to %v", skew, total)
		}
	}
}

// TestZipfDeterminism: identical seed ⇒ identical draw sequence;
// different seeds diverge. Determinism is what makes experiment
// rounds comparable (the satellite requirement in ISSUE 8).
func TestZipfDeterminism(t *testing.T) {
	const n = 10000
	draw := func(seed int64) []int {
		z, err := NewZipf(seed, 32, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, n)
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := draw(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestZipfRejectsBadArguments: the constructor refuses degenerate
// parameters instead of producing a silently-wrong sampler.
func TestZipfRejectsBadArguments(t *testing.T) {
	if _, err := NewZipf(1, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(1, 4, -1); err == nil {
		t.Error("negative skew accepted")
	}
	if _, err := NewZipf(1, 4, math.Inf(1)); err == nil {
		t.Error("infinite skew accepted")
	}
}
