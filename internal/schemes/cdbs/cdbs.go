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
	counters labels.Counters
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// Name implements labels.Algebra.
func (a *Algebra) Name() string { return "cdbs" }

// Counters implements labels.Instrumented.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// Traits implements labels.Algebra: the closed-form bulk assignment is
// neither recursive nor divides, and CDBS codes mount on both prefix and
// range labelings; the fixed length field keeps it overflow-prone.
func (a *Algebra) Traits() labels.Traits {
	return labels.Traits{
		Encoding:      labels.RepFixed,
		DivisionFree:  true,
		RecursiveInit: false,
		OverflowFree:  false,
		Orthogonal:    true,
	}
}

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("cdbs")

// Assign implements labels.Algebra with the compact binary enumeration.
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	a.counters.Assigns++
	bs := labels.AssignCompactBitStrings(n)
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

// Between implements labels.Algebra (the ImprovedBinary insertion rule).
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

// New returns a CDBS prefix labeling. As in ImprovedBinary, the root
// element carries the empty string.
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:              "cdbs",
		Algebra:           NewAlgebra(),
		ExtraBitsPerLevel: LengthFieldBits,
		RootCode:          labels.BitString(""),
	})
}

// NewRange returns CDBS mounted as a containment labeling.
func NewRange() labeling.Interface {
	return containment.NewInterval(containment.IntervalConfig{
		Name:    "cdbs-range",
		Algebra: NewAlgebra(),
	})
}

// Factory returns fresh CDBS instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return New() }
}
