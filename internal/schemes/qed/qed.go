// Package qed implements the QED quaternary labelling scheme of Li &
// Ling [14] (paper §4): codes over the digits {1,2,3} (0 is reserved as
// the storage separator) whose lexicographic order is maintained under
// arbitrary insertions without ever relabelling existing nodes. QED is
// orthogonal: NewPrefix mounts it as a prefix scheme, NewRange as a
// containment scheme.
package qed

import (
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/prefix"
)

// Algebra is the QED code algebra. It implements labels.Algebra and
// labels.Instrumented.
type Algebra struct {
	counters labels.Counters
}

// NewAlgebra returns a fresh QED algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// Name implements labels.Algebra.
func (a *Algebra) Name() string { return "qed" }

// Counters implements labels.Instrumented.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// Traits implements labels.Algebra. QED's bulk labelling recurses on the
// 1/3 and 2/3 positions (computed with divisions), which is why the
// paper grades it non-compliant on the Division-Computation and
// Recursive-Algorithm properties while fully compliant on overflow.
func (a *Algebra) Traits() labels.Traits {
	return labels.Traits{
		Encoding:      labels.RepVariable,
		DivisionFree:  false,
		RecursiveInit: true,
		OverflowFree:  true,
		Orthogonal:    true,
	}
}

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("qed")

// Assign implements labels.Algebra via the recursive thirds algorithm.
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	a.counters.Assigns++
	depth := 0
	qs, err := labels.AssignThirdsQStrings(n, &depth)
	if err != nil {
		return nil, err
	}
	if depth > a.counters.MaxRecursion {
		a.counters.MaxRecursion = depth
	}
	// Each recursion level computes two third positions by division.
	a.counters.Divisions += 2 * int64(depth)
	out := make([]labels.Code, n)
	for i, q := range qs {
		out[i] = q
	}
	return out, nil
}

// Between implements labels.Algebra. QED never fails: any neighbour pair
// admits a new code, so the scheme is overflow-free.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	a.counters.Betweens++
	l, err := toQ(left)
	if err != nil {
		return nil, err
	}
	r, err := toQ(right)
	if err != nil {
		return nil, err
	}
	return labels.BetweenQStrings(l, r)
}

// Compare implements labels.Algebra.
func (a *Algebra) Compare(x, y labels.Code) int {
	return labels.CompareQStrings(x.(labels.QString), y.(labels.QString))
}

func toQ(c labels.Code) (labels.QString, error) {
	if c == nil {
		return "", nil
	}
	q, ok := c.(labels.QString)
	if !ok {
		return "", fmt.Errorf("%w: %T is not a QED code", labels.ErrBadCode, c)
	}
	return q, nil
}

// NewPrefix returns QED mounted as a prefix labeling (QED-Prefix).
func NewPrefix() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:    "qed",
		Algebra: NewAlgebra(),
	})
}

// NewRange returns QED mounted as a containment labeling (QED-Range),
// demonstrating the Orthogonal property of §5.1.
func NewRange() labeling.Interface {
	return containment.NewInterval(containment.IntervalConfig{
		Name:    "qed-range",
		Algebra: NewAlgebra(),
	})
}

// Factory returns fresh QED-Prefix instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return NewPrefix() }
}
