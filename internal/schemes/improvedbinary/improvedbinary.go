// Package improvedbinary implements the ImprovedBinary prefix labelling
// scheme of Li & Ling [13] (paper §3.1.2, Figure 6): binary-string
// positional identifiers ending in 1, assigned by the recursive
// AssignMiddleSelfLabel algorithm and extended on insertion without
// renumbering — until the fixed-width length field that variable-length
// codes must carry overflows (paper §4).
package improvedbinary

import (
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/prefix"
)

// MaxCodeBits is the longest representable code: variable-length binary
// codes are stored with an 8-bit length field, so a code past 255 bits
// cannot be stored — the overflow problem the paper names in §4.
const MaxCodeBits = 255

// LengthFieldBits is the per-code framing cost.
const LengthFieldBits = 8

// Algebra is the ImprovedBinary code algebra.
type Algebra struct {
	counters labels.Counters
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// Name implements labels.Algebra.
func (a *Algebra) Name() string { return "improvedbinary" }

// Counters implements labels.Instrumented.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// Traits implements labels.Algebra: the middle position (1+n)/2 is a
// division and the bulk labelling is recursive — the two N gradings the
// paper assigns ImprovedBinary beyond the overflow problem.
func (a *Algebra) Traits() labels.Traits {
	return labels.Traits{
		Encoding:      labels.RepVariable,
		DivisionFree:  false,
		RecursiveInit: true,
		OverflowFree:  false,
		Orthogonal:    false,
	}
}

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("improvedbinary")

// Assign implements labels.Algebra via the recursive middle algorithm.
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	a.counters.Assigns++
	depth := 0
	bs, err := labels.AssignMiddleBitStrings(n, &depth)
	if err != nil {
		return nil, err
	}
	if depth > a.counters.MaxRecursion {
		a.counters.MaxRecursion = depth
	}
	a.counters.Divisions += int64(depth) // one midpoint division per level
	out := make([]labels.Code, n)
	for i, b := range bs {
		if len(b) > MaxCodeBits {
			a.counters.OverflowHits++
			return nil, fmt.Errorf("%w: bulk code of %d bits exceeds the %d-bit length field",
				labels.ErrOverflow, len(b), MaxCodeBits)
		}
		out[i] = b
	}
	return out, nil
}

// Between implements labels.Algebra, failing with ErrOverflow once the
// new code no longer fits the length field.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	a.counters.Betweens++
	l, err := toBits(left)
	if err != nil {
		return nil, err
	}
	r, err := toBits(right)
	if err != nil {
		return nil, err
	}
	m, err := labels.BetweenBitStrings(l, r)
	if err != nil {
		return nil, err
	}
	if len(m) > MaxCodeBits {
		a.counters.OverflowHits++
		return nil, fmt.Errorf("%w: code of %d bits exceeds the %d-bit length field",
			labels.ErrOverflow, len(m), MaxCodeBits)
	}
	return m, nil
}

// Compare implements labels.Algebra.
func (a *Algebra) Compare(x, y labels.Code) int {
	return labels.CompareBitStrings(x.(labels.BitString), y.(labels.BitString))
}

func toBits(c labels.Code) (labels.BitString, error) {
	if c == nil {
		return "", nil
	}
	b, ok := c.(labels.BitString)
	if !ok {
		return "", fmt.Errorf("%w: %T is not a binary-string code", labels.ErrBadCode, c)
	}
	return b, nil
}

// New returns an ImprovedBinary labeling. Per the published scheme, the
// root element carries the empty string.
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:              "improvedbinary",
		Algebra:           NewAlgebra(),
		ExtraBitsPerLevel: LengthFieldBits,
		RootCode:          labels.BitString(""),
	})
}

// Factory returns fresh ImprovedBinary instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return New() }
}
