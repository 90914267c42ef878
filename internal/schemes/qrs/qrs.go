// Package qrs implements the QRS robust numbering scheme of Amagasa,
// Yoshikawa & Uemura [2] (paper §3.1.1): containment labels whose
// endpoints are real (floating point) numbers, so that a midpoint always
// exists between two labels — in theory. The paper's critique is that
// "computers represent floating point numbers with a fixed number of
// bits and thus in practice the solution is similar to an integer
// representation with sparse allocation": after ~52 skewed insertions
// the float64 mantissa is exhausted and the scheme must relabel. This
// package reproduces exactly that behaviour (claim C1).
package qrs

import (
	"fmt"
	"strconv"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/containment"
)

// Code is a float64 endpoint. As a labels.Code, a QRS code is a *Code
// (Algebra).
type Code float64

// String renders the float with enough digits to distinguish neighbours.
func (c Code) String() string { return strconv.FormatFloat(float64(c), 'g', -1, 64) }

// Bits implements labels.Code: one IEEE-754 double.
func (c Code) Bits() int { return 64 }

// Algebra is the QRS float endpoint algebra. *Code is the one boxed
// form of a code: Between cuts it from heads, and a bulk row's codes
// point into pieces of the row (labels.Box).
type Algebra struct {
	counters labels.Counters
	heads    []Code
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// Counters reports the midpoints, which are true floating-point
// divisions and are counted as such, although the published matrix
// grades QRS division-free (docs/EXPERIMENTS.md, C8).
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("qrs")

// Assign implements labels.Algebra: whole numbers 1..n.
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]labels.Code, n)
	labels.Box[Code](out)
	for i, c := range out {
		*c.(*Code) = Code(i + 1)
	}
	return out, nil
}

// Between implements labels.Algebra: the float midpoint, failing with
// ErrNeedRelabel once the mantissa can no longer separate the bounds.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	lc, rc, err := labels.Neighbours[*Code](left, right)
	if err != nil {
		return nil, err
	}
	var l float64 // an open left end is 0
	switch {
	case lc == nil && rc == nil:
		return a.code(1), nil
	case rc == nil:
		return a.code(float64(*lc) + 1), nil
	case lc != nil:
		l = float64(*lc)
	}
	r := float64(*rc)
	if l >= r {
		return nil, fmt.Errorf("%w: %v not before %v", labels.ErrBadCode, l, r)
	}
	a.counters.Divisions++
	mid := (l + r) / 2
	if mid <= l || mid >= r {
		// Mantissa exhausted: "in practice the solution is similar to an
		// integer representation of labels with sparse allocation".
		return nil, fmt.Errorf("%w: float precision exhausted between %v and %v", labels.ErrNeedRelabel, l, r)
	}
	return a.code(mid), nil
}

// code is v cut from the algebra's chunk.
func (a *Algebra) code(v float64) labels.Code {
	h := labels.Cut(&a.heads, 1, labels.HeadsMin, labels.HeadsMax)
	h[0] = Code(v)
	return &h[0]
}

// Compare implements labels.Algebra.
func (a *Algebra) Compare(x, y labels.Code) int {
	cx, cy := float64(*x.(*Code)), float64(*y.(*Code))
	switch {
	case cx < cy:
		return -1
	case cx > cy:
		return 1
	default:
		return 0
	}
}

// New returns a QRS labeling: float-endpoint containment intervals.
func New() labeling.Interface {
	return containment.NewInterval(containment.IntervalConfig{
		Name:    "qrs",
		Algebra: NewAlgebra(),
	})
}
