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

// Code is a float64 endpoint.
type Code float64

// String renders the float with enough digits to distinguish neighbours.
func (c Code) String() string { return strconv.FormatFloat(float64(c), 'g', -1, 64) }

// Bits implements labels.Code: one IEEE-754 double.
func (c Code) Bits() int { return 64 }

// Algebra is the QRS float endpoint algebra.
type Algebra struct {
	counters labels.Counters
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// Name implements labels.Algebra.
func (a *Algebra) Name() string { return "qrs" }

// Counters implements labels.Instrumented.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// Traits implements labels.Algebra. Midpoints are true floating-point
// divisions; the published matrix grades QRS compliant on division —
// docs/EXPERIMENTS.md (C8) records the divergence our instrumentation
// measures.
func (a *Algebra) Traits() labels.Traits {
	return labels.Traits{
		Encoding:      labels.RepFixed,
		DivisionFree:  false,
		RecursiveInit: false,
		OverflowFree:  false,
		Orthogonal:    false,
	}
}

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("qrs")

// Assign implements labels.Algebra: whole numbers 1..n.
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	a.counters.Assigns++
	if n <= 0 {
		return nil, nil
	}
	out := make([]labels.Code, n)
	for i := 0; i < n; i++ {
		out[i] = Code(float64(i + 1))
	}
	return out, nil
}

// Between implements labels.Algebra: the float midpoint, failing with
// ErrNeedRelabel once the mantissa can no longer separate the bounds.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	a.counters.Betweens++
	var l, r float64
	hasL, hasR := left != nil, right != nil
	if hasL {
		lc, ok := left.(Code)
		if !ok {
			return nil, fmt.Errorf("%w: %T is not a QRS code", labels.ErrBadCode, left)
		}
		l = float64(lc)
	}
	if hasR {
		rc, ok := right.(Code)
		if !ok {
			return nil, fmt.Errorf("%w: %T is not a QRS code", labels.ErrBadCode, right)
		}
		r = float64(rc)
	}
	switch {
	case !hasL && !hasR:
		return Code(1), nil
	case !hasL:
		l = 0
	case !hasR:
		return Code(l + 1), nil
	}
	if l >= r {
		return nil, fmt.Errorf("%w: %v not before %v", labels.ErrBadCode, l, r)
	}
	a.counters.Divisions++
	mid := (l + r) / 2
	if mid <= l || mid >= r {
		// Mantissa exhausted: "in practice the solution is similar to an
		// integer representation of labels with sparse allocation".
		a.counters.RelabelErrors++
		return nil, fmt.Errorf("%w: float precision exhausted between %v and %v", labels.ErrNeedRelabel, l, r)
	}
	return Code(mid), nil
}

// Compare implements labels.Algebra.
func (a *Algebra) Compare(x, y labels.Code) int {
	cx, cy := float64(x.(Code)), float64(y.(Code))
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

// Factory returns fresh QRS instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return New() }
}
