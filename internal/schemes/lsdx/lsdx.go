// Package lsdx implements the LSDX labelling scheme of Duong & Zhang [7]
// (paper §3.1.2, Figure 5). A label combines the node's level, the
// concatenated letters of its ancestors and its own letter string:
// the root is "0a", its children "1a.b", "1a.c", ..., a grandchild
// "2ab.b". Insertion rules are implemented exactly as published —
// including the corner cases in which they "do not always produce unique
// node labels" (the paper's §3.1.2 verdict, citing Sans & Laurent [19]);
// the collision experiment C4 reproduces a duplicate label with them.
package lsdx

import (
	"fmt"
	"strings"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/prefix"
)

// Code is an LSDX positional identifier: a non-empty lowercase letter
// string.
type Code string

// String implements labels.Code.
func (c Code) String() string { return string(c) }

// Bits implements labels.Code: letters are stored as bytes.
func (c Code) Bits() int { return 8 * len(c) }

// MaxCodeBytes is the default storage budget for one positional
// identifier: variable-length letter strings are stored with a one-byte
// length field (the §4 overflow argument applies to LSDX as to every
// variable-length scheme).
const MaxCodeBytes = 255

// Algebra is the LSDX letter algebra.
type Algebra struct {
	counters labels.Counters
	// maxBytes bounds code length; 0 disables the bound (Com-D wraps
	// this algebra and applies its own bound to the compressed form).
	maxBytes int
}

// NewAlgebra returns a fresh algebra with the default length budget.
func NewAlgebra() *Algebra { return &Algebra{maxBytes: MaxCodeBytes} }

// NewUnboundedAlgebra returns an algebra without a length budget.
func NewUnboundedAlgebra() *Algebra { return &Algebra{} }

// Name implements labels.Algebra.
func (a *Algebra) Name() string { return "lsdx" }

// Counters implements labels.Instrumented.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// Traits implements labels.Algebra.
func (a *Algebra) Traits() labels.Traits {
	return labels.Traits{
		Encoding:      labels.RepVariable,
		DivisionFree:  true,
		RecursiveInit: false,
		OverflowFree:  false,
		Orthogonal:    false,
	}
}

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("lsdx")

// Assign implements labels.Algebra: "the first child of every node uses
// the letter b instead of a to permit future insertions before the first
// child. If the previously assigned positional identifier is z, then the
// next identifier will be zb."
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	a.counters.Assigns++
	if n <= 0 {
		return nil, nil
	}
	out := make([]labels.Code, n)
	cur := "b"
	for i := 0; i < n; i++ {
		out[i] = Code(cur)
		cur = successor(cur)
	}
	return out, nil
}

// successor produces the next bulk identifier after s.
func successor(s string) string {
	last := s[len(s)-1]
	if last < 'z' {
		return s[:len(s)-1] + string(last+1)
	}
	return s + "b"
}

// Between implements labels.Algebra with the three published insertion
// rules. It never requests a relabel — LSDX always produces *a* label;
// whether the label is unique is exactly the defect under study.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	a.counters.Betweens++
	l, err := toCode(left)
	if err != nil {
		return nil, err
	}
	r, err := toCode(right)
	if err != nil {
		return nil, err
	}
	var out Code
	switch {
	case l == "" && r == "":
		out = Code("b")
	case l == "":
		// "A new node inserted to the left of all existing child nodes
		// is labelled by taking the existing leftmost child label and
		// prefixing an a to its positional identifier."
		out = Code("a" + r)
	case r == "":
		// "...taking the existing rightmost child label and
		// lexicographically incrementing the last letter."
		out = Code(successor(string(l)))
	default:
		// "...lexicographically incrementing the positional identifier
		// of the new node such that it is greater than its left
		// neighbour and less than its right neighbour" — realised, as
		// in the LSDX examples, by appending 'b' to the left neighbour
		// (Figure 5's 2ad.bb between 2ad.b and 2ad.c).
		out = Code(string(l) + "b")
	}
	if a.maxBytes > 0 && len(out) > a.maxBytes {
		a.counters.OverflowHits++
		return nil, fmt.Errorf("%w: LSDX code of %d letters exceeds the %d-byte length field",
			labels.ErrOverflow, len(out), a.maxBytes)
	}
	return out, nil
}

// Compare implements labels.Algebra: plain lexicographic letter order.
func (a *Algebra) Compare(x, y labels.Code) int {
	return strings.Compare(string(x.(Code)), string(y.(Code)))
}

func toCode(c labels.Code) (Code, error) {
	if c == nil {
		return "", nil
	}
	lc, ok := c.(Code)
	if !ok {
		return "", fmt.Errorf("%w: %T is not an LSDX code", labels.ErrBadCode, c)
	}
	return lc, nil
}

// RootCode is the root element's positional identifier: the root is
// labelled "0a".
const RootCode = Code("a")

// Render formats an LSDX label: level, ancestor letters, a dot, own
// letters — "2ad.bb"; the root renders "0a".
func Render(codes []labels.Code) string {
	level := len(codes) - 1
	if level == 0 {
		return fmt.Sprintf("%d%s", level, codes[0])
	}
	var anc strings.Builder
	for _, c := range codes[:len(codes)-1] {
		anc.WriteString(c.String())
	}
	return fmt.Sprintf("%d%s.%s", level, anc.String(), codes[len(codes)-1])
}

// New returns an LSDX labeling.
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:     "lsdx",
		Algebra:  NewAlgebra(),
		Render:   Render,
		RootCode: RootCode,
	})
}

// Factory returns fresh LSDX instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return New() }
}
