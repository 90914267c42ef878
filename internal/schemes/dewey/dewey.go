// Package dewey implements the DeweyID prefix labelling scheme of
// Tatarinov et al. [22] (paper §3.1.2, Figure 3): the positional
// identifier of the n-th child is the integer n, concatenated to the
// parent's label with a dot. Insertion requires relabelling following
// siblings and their descendants — the scheme's defining weakness.
package dewey

import (
	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/prefix"
)

// Width is the fixed storage width of one Dewey component.
const Width = 32

// NewAlgebra returns the DeweyID component algebra: dense integers from
// 1, no gaps. Interior and before-first insertions always require
// relabelling; append extends by one.
func NewAlgebra() *labels.IntAlgebra {
	return labels.MustIntAlgebra(labels.IntAlgebraConfig{
		Name:  "dewey-int",
		Start: 1,
		Gap:   1,
		Width: Width,
	})
}

// New returns a DeweyID labeling (labeling.Interface).
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:    "deweyid",
		Algebra: NewAlgebra(),
	})
}
