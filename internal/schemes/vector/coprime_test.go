package vector

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmldyn/internal/labels"
)

// TestMediantCoprimality: labels generated by mediants between adjacent
// neighbours are the Stern-Brocot fractions — every assigned vector is
// in lowest terms, which is what makes gradient comparison collision
// free. The property holds for bulk assignment and for any
// adjacent-insertion storm.
func TestMediantCoprimality(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		v := c.(*Code)
		if gcd(v.X, v.Y) != 1 {
			t.Fatalf("bulk vector %s not in lowest terms", v)
		}
	}
	// The property requires Stern-Brocot adjacency with the virtual
	// bounds, so the storm starts from a complete small assignment
	// (truncating a larger one models deletions, after which mediants
	// may be unreduced — order still holds, tested elsewhere).
	base, err := a.Assign(4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		codes := append([]labels.Code{}, base...)
		for i := 0; i < 80; i++ {
			k := rng.Intn(len(codes) + 1)
			var l, r labels.Code
			if k > 0 {
				l = codes[k-1]
			}
			if k < len(codes) {
				r = codes[k]
			}
			m, err := a.Between(l, r)
			if err != nil {
				return true // hit the UTF-8 ceiling: acceptable stop
			}
			v := m.(*Code)
			if gcd(v.X, v.Y) != 1 {
				return false
			}
			codes = append(codes, nil)
			copy(codes[k+1:], codes[k:])
			codes[k] = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGradientTotalOrderOnDistinctLabels: coprimality implies no two
// live labels ever compare equal.
func TestGradientTotalOrderOnDistinctLabels(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			if a.Compare(cs[i], cs[j]) == 0 {
				t.Fatalf("distinct bulk vectors compare equal: %s %s", cs[i], cs[j])
			}
		}
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
