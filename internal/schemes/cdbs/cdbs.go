// Package cdbs implements the Compact Dynamic Binary String scheme of
// Li, Ling & Hu [15] (paper §4): ImprovedBinary's insertion algorithm
// with a provably compact bulk assignment (the k-bit binary codes of
// 1..n with trailing zeros removed). The compactness is bought with
// fixed-length framing, so CDBS remains subject to the overflow problem
// — the paper's point in contrasting it with QED and CDQS.
package cdbs

import (
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/prefix"
)

// MaxCodeBits mirrors the 8-bit length field of the CDBS storage layout.
const MaxCodeBits = 255

// LengthFieldBits is the per-code framing cost.
const LengthFieldBits = 8

// Algebra is the CDBS code algebra.
type Algebra struct {
	codes labels.BitCodes // what Between mints
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{codes: labels.BitCodes{Max: MaxCodeBits}} }

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("cdbs")

// Assign implements labels.Algebra with the compact binary enumeration.
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, nil, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	bs := labels.AssignCompactBitStrings(n)
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

// Between implements labels.Algebra (the ImprovedBinary insertion rule).
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	return a.codes.Between(left, right)
}

// Compare implements labels.Algebra.
func (a *Algebra) Compare(x, y labels.Code) int {
	return labels.CompareBitStrings(*x.(*labels.BitString), *y.(*labels.BitString))
}

// rootCode is the root element's code, the empty string.
var rootCode labels.BitString

// New returns a CDBS prefix labeling. As in ImprovedBinary, the root
// element carries the empty string.
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:              "cdbs",
		Algebra:           NewAlgebra(),
		ExtraBitsPerLevel: LengthFieldBits,
		RootCode:          &rootCode,
	})
}

// NewRange returns CDBS mounted as a containment labeling.
func NewRange() labeling.Interface {
	return containment.NewInterval(containment.IntervalConfig{
		Name:    "cdbs-range",
		Algebra: NewAlgebra(),
	})
}
