// Package cdqs implements the Compact Dynamic Quaternary String scheme
// of Li, Ling & Hu [16] (paper §4): QED's separator-delimited quaternary
// codes with a compact bulk assignment. CDQS inherits QED's complete
// immunity to the overflow problem while shrinking initial labels — the
// paper's evaluation finds it "satisfies the greater number of
// properties" of any surveyed scheme (§5.2).
package cdqs

import (
	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/prefix"
)

// Algebra is the CDQS code algebra.
type Algebra struct {
	codes labels.QCodes // what Between mints
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("cdqs")

// Assign implements labels.Algebra with the compact enumeration. The
// published matrix grades CDQS N on Division Computation and Recursive
// Algorithm because the original bulk routine is recursive; this one
// enumerates the n shortest codes in closed form, neither recursive nor
// dividing, so the measured cells diverge (docs/EXPERIMENTS.md, C8).
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, nil, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	qs := labels.AssignCompactQStrings(n)
	out := make([]labels.Code, n)
	for i := range qs {
		out[i] = &qs[i]
	}
	return out, nil
}

// Between implements labels.Algebra (QED insertion; never fails).
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	return a.codes.Between(left, right)
}

// Compare implements labels.Algebra.
func (a *Algebra) Compare(x, y labels.Code) int {
	return labels.CompareQStrings(*x.(*labels.QString), *y.(*labels.QString))
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
