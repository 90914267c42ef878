// Package comd implements the Compressed Dynamic Labelling Scheme
// (Com-D) of Duong & Zhang [8] (paper §3.1.2): LSDX labels whose
// repetitive letters are run-length compressed for storage —
// "aaaaabcbcbcdddde" becomes "5a3(bc)4de". Comparisons operate on the
// decompressed letters; only the storage cost changes. Com-D inherits
// LSDX's insertion rules and therefore also its uniqueness defect.
package comd

import (
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/lsdx"
	"xmldyn/internal/schemes/prefix"
)

// Code is a Com-D positional identifier: LSDX letters stored compressed.
type Code struct {
	raw string // decompressed letters
}

// String renders the compressed storage form.
func (c Code) String() string { return labels.CompressRuns(c.raw) }

// Bits implements labels.Code: bytes of the compressed form.
func (c Code) Bits() int { return 8 * len(labels.CompressRuns(c.raw)) }

// MaxCompressedBytes bounds the *compressed* storage of one code —
// Com-D's point is that the budget applies after compression, so runs
// of repeated letters no longer exhaust it.
const MaxCompressedBytes = 255

// Algebra wraps the LSDX algebra with compressed codes.
type Algebra struct {
	inner *lsdx.Algebra
}

// NewAlgebra returns a fresh algebra. The inner LSDX algebra runs
// unbounded; the compressed-size budget is enforced here.
func NewAlgebra() *Algebra { return &Algebra{inner: lsdx.NewUnboundedAlgebra()} }

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("comd")

// Assign implements labels.Algebra.
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, nil, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	cs, err := a.inner.Assign(n)
	if err != nil {
		return nil, err
	}
	out := make([]labels.Code, len(cs))
	for i, c := range cs {
		out[i] = Code{raw: c.String()}
	}
	return out, nil
}

// Between implements labels.Algebra.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	l, r, err := labels.Neighbours[Code](left, right)
	if err != nil {
		return nil, err
	}
	m, err := a.inner.Between(lsdx.Code(l.raw), lsdx.Code(r.raw))
	if err != nil {
		return nil, err
	}
	out := Code{raw: m.String()}
	if compressed := labels.CompressRuns(out.raw); len(compressed) > MaxCompressedBytes {
		return nil, fmt.Errorf("%w: Com-D compressed code of %d bytes exceeds the %d-byte budget",
			labels.ErrOverflow, len(compressed), MaxCompressedBytes)
	}
	return out, nil
}

// Compare implements labels.Algebra on the decompressed letters.
func (a *Algebra) Compare(x, y labels.Code) int {
	cx, cy := x.(Code), y.(Code)
	switch {
	case cx.raw < cy.raw:
		return -1
	case cx.raw > cy.raw:
		return 1
	default:
		return 0
	}
}

// Render formats a Com-D label like LSDX but with compressed components.
func Render(codes []labels.Code) string {
	conv := make([]labels.Code, len(codes))
	for i, c := range codes {
		conv[i] = lsdx.Code(labels.CompressRuns(c.(Code).raw))
	}
	return lsdx.Render(conv)
}

// New returns a Com-D labeling.
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:     "com-d",
		Algebra:  NewAlgebra(),
		Render:   Render,
		RootCode: Code{raw: string(lsdx.RootCode)},
	})
}
