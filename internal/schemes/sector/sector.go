// Package sector implements the concise sector labelling scheme of
// Thonangi [23] (paper §3.1.1): a containment variant that assigns each
// node a sector — an angular sub-range of its parent's sector on a
// fixed-point circle — instead of a begin/end interval, with
// ancestor-descendant and document-order relationships decided by range
// formulae. We realise the sectors as fixed-point integer ranges
// subdivided by shifts (no divisions); docs/EXPERIMENTS.md records the
// substitution. As a fixed-width scheme it is subject to the overflow
// problem and relabels when a sector is exhausted.
package sector

import (
	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/containment"
)

// Width is the fixed-point resolution of the sector circle.
const Width = 40

// Gap is the initial angular spacing between consecutive endpoints.
const Gap = 1 << 18

// NewAlgebra returns the sector endpoint algebra: fixed-point angles
// with shift-computed midpoints.
func NewAlgebra() *labels.IntAlgebra {
	return labels.MustIntAlgebra(labels.IntAlgebraConfig{
		Name:     "sector-fixedpoint",
		Start:    Gap,
		Gap:      Gap,
		Width:    Width,
		Midpoint: true,
		Floor:    1,
	})
}

// New returns a sector labeling: containment over fixed-point angular
// ranges without level information (the scheme does not encode levels,
// hence its Partial XPath grading in Figure 7).
func New() labeling.Interface {
	return containment.NewInterval(containment.IntervalConfig{
		Name:    "sector",
		Algebra: NewAlgebra(),
	})
}

// Factory returns fresh sector instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return New() }
}
