// Package vector implements the vector labelling scheme of Xu, Bao &
// Ling [27] (paper §3.1.2/§4): positional identifiers are integer
// vectors (x, y) ordered by the gradient y/x, with order decided by
// cross multiplication — G(A) > G(B) iff yA*xB > xA*yB — so no division
// is ever computed. Bulk loading recursively assigns mediants between
// the virtual bounds (1,0) and (0,1); insertion between neighbours is
// the vector sum, which never disturbs existing labels. Components are
// stored with the UTF-8-style variable-length codec whose 2^21 ceiling
// the paper questions; crossing it surfaces as ErrOverflow, making the
// critique measurable (claim C6).
package vector

import (
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/prefix"
)

// Code is a vector positional identifier with positive gradient
// ordering. The virtual bounds (1,0) and (0,1) are never assigned to
// nodes.
type Code struct {
	X, Y uint64
}

// String renders "(x,y)".
func (c Code) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Bits implements labels.Code: both components under the UTF-8-style
// codec; components beyond the 2^21 ceiling are charged the LEB128 cost
// a corrected codec would need (the comparison the paper invites).
func (c Code) Bits() int {
	total := 0
	for _, v := range [2]uint64{c.X, c.Y} {
		if v <= labels.MaxUTF8Value {
			b, _ := labels.UTF8StyleBits(uint32(v))
			total += b
		} else {
			total += 8 * labels.LEB128Len(v)
		}
	}
	return total
}

// gradLess reports G(a) < G(b) via cross multiplication.
func gradLess(a, b Code) bool { return a.Y*b.X < b.Y*a.X }

// Algebra is the vector code algebra.
type Algebra struct {
	counters labels.Counters
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// Name implements labels.Algebra.
func (a *Algebra) Name() string { return "vector" }

// Counters implements labels.Instrumented.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// Traits implements labels.Algebra: division-free (cross
// multiplication), recursive bulk assignment, overflow-free up to the
// UTF-8 codec ceiling, orthogonal.
func (a *Algebra) Traits() labels.Traits {
	return labels.Traits{
		Encoding:      labels.RepVariable,
		DivisionFree:  true,
		RecursiveInit: true,
		OverflowFree:  true,
		Orthogonal:    true,
	}
}

// virtual bounds of the gradient space.
var (
	boundLeft  = Code{X: 1, Y: 0}
	boundRight = Code{X: 0, Y: 1}
)

// mediant is the insertion primitive: the sum of the two bounding
// vectors lies strictly between them in gradient order.
func mediant(l, r Code) Code { return Code{X: l.X + r.X, Y: l.Y + r.Y} }

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("vector")

// Assign implements labels.Algebra: recursive mediants between the
// virtual bounds, mirroring the QED-style middle recursion the scheme's
// authors describe.
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	a.counters.Assigns++
	if n <= 0 {
		return nil, nil
	}
	out := make([]labels.Code, n)
	depth := 0
	a.fill(out, 0, n, boundLeft, boundRight, 1, &depth)
	if depth > a.counters.MaxRecursion {
		a.counters.MaxRecursion = depth
	}
	for _, c := range out {
		v := c.(Code)
		if v.X > labels.MaxUTF8Value || v.Y > labels.MaxUTF8Value {
			a.counters.OverflowHits++
			return nil, fmt.Errorf("%w: vector component beyond the UTF-8 ceiling during bulk load", labels.ErrOverflow)
		}
	}
	return out, nil
}

// fill assigns positions [lo, hi) between the bounding vectors.
func (a *Algebra) fill(out []labels.Code, lo, hi int, l, r Code, d int, depth *int) {
	if *depth < d {
		*depth = d
	}
	if lo >= hi {
		return
	}
	mid := lo + (hi-lo)/2
	m := mediant(l, r)
	out[mid] = m
	a.fill(out, lo, mid, l, m, d+1, depth)
	a.fill(out, mid+1, hi, m, r, d+1, depth)
}

// Between implements labels.Algebra: the mediant of the neighbours
// (virtual bounds at the ends). The result fails with ErrOverflow once a
// component exceeds the UTF-8-style limit — the paper's §4 question made
// concrete.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	a.counters.Betweens++
	l, r := boundLeft, boundRight
	if left != nil {
		lc, ok := left.(Code)
		if !ok {
			return nil, fmt.Errorf("%w: %T is not a vector code", labels.ErrBadCode, left)
		}
		l = lc
	}
	if right != nil {
		rc, ok := right.(Code)
		if !ok {
			return nil, fmt.Errorf("%w: %T is not a vector code", labels.ErrBadCode, right)
		}
		r = rc
	}
	if !gradLess(l, r) {
		return nil, fmt.Errorf("%w: %s not before %s in gradient order", labels.ErrBadCode, l, r)
	}
	m := mediant(l, r)
	if m.X > labels.MaxUTF8Value || m.Y > labels.MaxUTF8Value {
		a.counters.OverflowHits++
		return nil, fmt.Errorf("%w: vector %s exceeds the UTF-8 delimiter ceiling (paper §4)", labels.ErrOverflow, m)
	}
	return m, nil
}

// Compare implements labels.Algebra by gradient cross multiplication.
func (a *Algebra) Compare(x, y labels.Code) int {
	cx, cy := x.(Code), y.(Code)
	lhs := cx.Y * cy.X
	rhs := cy.Y * cx.X
	switch {
	case lhs < rhs:
		return -1
	case lhs > rhs:
		return 1
	default:
		return 0
	}
}

// NewPrefix returns the vector scheme mounted as a prefix labeling
// (V-Prefix in the scheme's paper).
func NewPrefix() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:    "vector",
		Algebra: NewAlgebra(),
	})
}

// NewRange returns the vector scheme mounted as a containment labeling
// (V-Containment), demonstrating orthogonality.
func NewRange() labeling.Interface {
	return containment.NewInterval(containment.IntervalConfig{
		Name:    "vector-range",
		Algebra: NewAlgebra(),
	})
}

// Factory returns fresh vector-prefix instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return NewPrefix() }
}
