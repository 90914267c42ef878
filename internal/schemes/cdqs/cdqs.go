// Package cdqs implements the Compact Dynamic Quaternary String scheme
// of Li, Ling & Hu [16] (paper §4): QED's separator-delimited quaternary
// codes with a compact bulk assignment. CDQS inherits QED's complete
// immunity to the overflow problem while shrinking initial labels — the
// paper's evaluation finds it "satisfies the greater number of
// properties" of any surveyed scheme (§5.2).
package cdqs

import (
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/prefix"
)

// Algebra is the CDQS code algebra.
type Algebra struct {
	counters labels.Counters
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// Name implements labels.Algebra.
func (a *Algebra) Name() string { return "cdqs" }

// Counters implements labels.Instrumented.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// Traits implements labels.Algebra.
//
// Note: the published matrix grades CDQS non-compliant on Division
// Computation and Recursive Algorithm because the original paper's bulk
// routine is recursive. Our implementation enumerates the n shortest
// codes in closed form — neither recursive nor dividing — so the
// measured matrix diverges on those two cells; docs/EXPERIMENTS.md (C8)
// records the reason.
func (a *Algebra) Traits() labels.Traits {
	return labels.Traits{
		Encoding:      labels.RepVariable,
		DivisionFree:  true,
		RecursiveInit: false,
		OverflowFree:  true,
		Orthogonal:    true,
	}
}

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("cdqs")

// Assign implements labels.Algebra with the compact enumeration.
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	a.counters.Assigns++
	qs := labels.AssignCompactQStrings(n)
	out := make([]labels.Code, n)
	for i, q := range qs {
		out[i] = q
	}
	return out, nil
}

// Between implements labels.Algebra (QED insertion; never fails).
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
		return "", fmt.Errorf("%w: %T is not a quaternary code", labels.ErrBadCode, c)
	}
	return q, nil
}

// New returns a CDQS prefix labeling.
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:    "cdqs",
		Algebra: NewAlgebra(),
	})
}

// NewRange returns CDQS mounted as a containment labeling.
func NewRange() labeling.Interface {
	return containment.NewInterval(containment.IntervalConfig{
		Name:    "cdqs-range",
		Algebra: NewAlgebra(),
	})
}

// Factory returns fresh CDQS instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return New() }
}
