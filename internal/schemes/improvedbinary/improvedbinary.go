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
	codes    labels.BitCodes // what Between mints
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{codes: labels.BitCodes{Max: MaxCodeBits}} }

// Counters reports the middle algorithm's divisions and recursion.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("improvedbinary")

// Assign implements labels.Algebra via the recursive middle algorithm.
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
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
	for i := range bs {
		if len(bs[i]) > MaxCodeBits {
			return nil, fmt.Errorf("%w: bulk code of %d bits exceeds the %d-bit length field",
				labels.ErrOverflow, len(bs[i]), MaxCodeBits)
		}
		out[i] = &bs[i]
	}
	return out, nil
}

// Between implements labels.Algebra, failing with ErrOverflow once the
// new code no longer fits the length field.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	return a.codes.Between(left, right)
}

// Compare implements labels.Algebra.
func (a *Algebra) Compare(x, y labels.Code) int {
	return labels.CompareBitStrings(*x.(*labels.BitString), *y.(*labels.BitString))
}

// rootCode is the root element's code, the empty string.
var rootCode labels.BitString

// New returns an ImprovedBinary labeling. Per the published scheme, the
// root element carries the empty string.
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:              "improvedbinary",
		Algebra:           NewAlgebra(),
		ExtraBitsPerLevel: LengthFieldBits,
		RootCode:          &rootCode,
	})
}
