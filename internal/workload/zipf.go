package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Zipf draws document ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s: rank 0 is the hottest document, rank n-1 the coldest.
// A skew of 0 degenerates to the uniform distribution; s ≈ 1 is the
// classic web-popularity shape; s ≥ 2 concentrates almost all mass on
// the first few ranks. Sampling is inverse-CDF over the exact finite
// probability mass (no rejection, any s ≥ 0), so a Zipf is fully
// deterministic for a given seed — the property that makes benchmark
// runs and A/B workload streams comparable (docs/EXPERIMENTS.md).
type Zipf struct {
	rng *rand.Rand
	cum []float64 // cum[r] = P(rank ≤ r); cum[n-1] == 1
}

// NewZipf builds a sampler over n ranks with exponent s, seeded
// deterministically. n must be positive and s non-negative.
func NewZipf(seed int64, n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf needs n > 0, got %d", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("workload: zipf skew must be finite and >= 0, got %v", s)
	}
	cum := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	cum[n-1] = 1 // exact upper bound despite rounding
	return &Zipf{rng: rand.New(rand.NewSource(seed)), cum: cum}, nil
}

// Next draws the next rank. The stream is a pure function of the
// constructor arguments: identical (seed, n, s) yields identical draws.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// Prob returns the theoretical probability of a rank — the mass the
// empirical rank-frequency is tested against (zipf_test.go).
func (z *Zipf) Prob(rank int) float64 {
	if rank < 0 || rank >= len(z.cum) {
		return 0
	}
	if rank == 0 {
		return z.cum[0]
	}
	return z.cum[rank] - z.cum[rank-1]
}

// Ranks returns the number of ranks the sampler draws from.
func (z *Zipf) Ranks() int { return len(z.cum) }
