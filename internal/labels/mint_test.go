package labels_test

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/cdbs"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/improvedbinary"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/schemes/qrs"
	"xmldyn/internal/schemes/vector"
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

// TestFixedSizeCodesAreCut: an integer, vector or QRS code is a pointer
// into its algebra's chunk of labels.HeadsMin doubling to
// labels.HeadsMax codes. So, once the chunk has grown to its cap, 64
// appends behind the last sibling allocate exactly the 64/HeadsMax
// chunks they fill, and nothing per code; and a code's value form is
// refused like a foreign code — ErrBadCode, no panic — so a call site
// that boxes one fails instead of passing.
func TestFixedSizeCodesAreCut(t *testing.T) {
	for _, c := range []struct {
		name  string
		a     labels.Algebra
		value labels.Code
	}{
		{"deweyid", dewey.NewAlgebra(), labels.IntCode{V: 1, Width: dewey.Width}},
		{"vector", vector.NewAlgebra(), vector.Code{X: 1, Y: 1}},
		{"qrs", qrs.NewAlgebra(), qrs.Code(1)},
	} {
		last, err := c.a.Between(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]labels.Code{{c.value, nil}, {nil, c.value}, {last, c.value}} {
			if got, err := c.a.Between(pair[0], pair[1]); !errors.Is(err, labels.ErrBadCode) || got != nil {
				t.Errorf("%s: Between(%#v, %#v) = %v, %v; want ErrBadCode", c.name, pair[0], pair[1], got, err)
			}
		}
		var err2 error
		mint := func() {
			for range 64 {
				if last, err = c.a.Between(last, nil); err != nil {
					err2 = err
					return
				}
			}
		}
		mint() // the chunk grows to its cap
		allocs := testing.AllocsPerRun(50, mint)
		if err2 != nil {
			t.Fatalf("%s: %v", c.name, err2)
		}
		if allocs != 64/labels.HeadsMax {
			t.Errorf("%s: 64 Betweens allocate %v times, want the %d chunks they fill", c.name, allocs, 64/labels.HeadsMax)
		}
	}
}

// TestBoxCutsPowerOfTwoPieces: the codes of a computed row point into
// pieces of at most 32 KiB, each a power of two of codes, so that a
// piece of 16-byte codes is exactly one of the allocator's size classes
// and no byte of the row rounds up. 40 000 vector codes, a renumbering
// of 20 000 labelled nodes, are 19 pieces of 2 048 and one each of
// 1 024 and 64: 21 allocations, not 40 000, of 640 000 B together.
func TestBoxCutsPowerOfTwoPieces(t *testing.T) {
	// The least of five: what the runtime allocates beside Box only adds.
	codes := make([]labels.Code, 40000)
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC() // so that no collection starts inside the measurement
		runtime.ReadMemStats(&before)
		labels.Box[vector.Code](codes)
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs != 21 || bytes != 40000*16 {
		t.Errorf("boxing 40 000 codes of 16 B allocates %d times and %d B, want 21 and 640 000", allocs, bytes)
	}
	for i, c := range codes {
		if v := c.(*vector.Code); *v != (vector.Code{}) || i > 0 && v == codes[i-1] {
			t.Fatalf("code %d is %v, not a zero code of its own", i, v)
		}
	}
}
