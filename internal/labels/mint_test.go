package labels_test

import (
	"testing"

	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/cdbs"
	"xmldyn/internal/schemes/improvedbinary"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/qed"
)

// TestMintedCodesAllocNothing: an algebra that cuts its codes from
// chunks allocates a chunk now and then, not a code a call. Once the
// chunks have grown to their caps, an append behind a sibling averages
// at most 0.1 allocations a call over a run that spans whole chunk cycles
// (the 768 B bounds: 16 ORDPATH headers and 48 components, 32 string
// headers and 256 B of symbols; a careted ORDPATH code of two components
// costs 1/16 + 2/48 ≈ 0.104).
func TestMintedCodesAllocNothing(t *testing.T) {
	const calls = 768 // whole cycles of every chunk
	for _, c := range []struct {
		name string
		a    labels.Algebra
	}{
		{"ordpath", ordpath.NewAlgebra()},
		{"cdbs", cdbs.NewAlgebra()},
		{"improvedbinary", improvedbinary.NewAlgebra()},
		{"qed", qed.NewAlgebra()},
	} {
		row, err := c.a.Assign(1)
		if err != nil {
			t.Fatal(err)
		}
		var err2 error
		mint := func() {
			for i := 0; i < calls; i++ {
				if _, err := c.a.Between(row[0], nil); err != nil {
					err2 = err
				}
			}
		}
		mint() // the chunks grow to their caps
		per := testing.AllocsPerRun(4, mint) / calls
		if err2 != nil {
			t.Fatalf("%s: %v", c.name, err2)
		}
		if per > 0.1 {
			t.Errorf("%s: Between allocates %.3f a call; want at most 0.1", c.name, per)
		}
	}
}
