// Package ordpath implements the ORDPATH labelling scheme of O'Neil et
// al. [18] (paper §3.1.2, Figure 4). Positional identifiers are
// component sequences obeying the grammar (even)* odd: initial loading
// uses positive odd integers, and insertions between consecutive odds
// "caret in" through the reserved even values, e.g. a node inserted
// between 1.5.1 and 1.5.3 becomes 1.5.2.1. Codes are stored in a
// prefix-free compressed binary form; the fixed budget of that form is
// what keeps ORDPATH subject to the overflow problem (§4).
package ordpath

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/prefix"
)

// MaxCodeBits bounds the compressed size of a single positional
// identifier (the length budget of the storage format).
const MaxCodeBits = 255

// payload widths of the compressed component encoding, selected by a
// 3-bit prefix (a simplified version of the published Li/Lj bucket
// table; docs/EXPERIMENTS.md records the substitution).
var payloadWidths = [...]int{3, 6, 9, 12, 18, 24, 36, 48}

// prefixBits is the size of the bucket selector.
const prefixBits = 3

// componentBits returns the compressed size of one component value.
func componentBits(v int64) (int, error) {
	z := uint64(v<<1) ^ uint64(v>>63) // zigzag: small magnitudes stay small
	s := bits.Len64(z)
	if s == 0 {
		s = 1
	}
	for _, w := range payloadWidths {
		if s <= w {
			return prefixBits + w, nil
		}
	}
	return 0, fmt.Errorf("%w: ORDPATH component %d exceeds the largest bucket", labels.ErrOverflow, v)
}

// Code is one ORDPATH positional identifier: a component sequence of
// zero or more even "caret" values followed by a terminal odd value.
// Valid codes are prefix-free, so component-wise numeric comparison is a
// total order. As a labels.Code, an ORDPATH code is a *Code (Algebra).
type Code struct {
	comps []int64
}

// String joins components with dots, as in the paper's Figure 4
// ("1.5.2.1" flattens the parent path and the careted identifier).
func (c Code) String() string {
	parts := make([]string, len(c.comps))
	for i, v := range c.comps {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ".")
}

// Bits implements labels.Code using the compressed component encoding.
func (c Code) Bits() int {
	total := 0
	for _, v := range c.comps {
		b, err := componentBits(v)
		if err != nil {
			// Component beyond the largest bucket: report the
			// worst-case bucket; Between/Assign reject such values.
			b = prefixBits + payloadWidths[len(payloadWidths)-1]
		}
		total += b
	}
	return total
}

// The chunks an Algebra cuts codes from: headers 4 doubling to 16
// (384 B), components 8 doubling to 48 (384 B), so a live code keeps at
// most 768 B reachable, or 384 B and its own components when it has
// more than 12 of them (labels.Cut).
const (
	headsMin, headsMax = 4, 16
	compsMin, compsMax = 8, 48
)

// Algebra is the ORDPATH code algebra. *Code is the one boxed form of a
// code; Between cuts the header from heads and the components from comps.
type Algebra struct {
	counters labels.Counters
	heads    []Code
	comps    []int64
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// Counters reports the halvings of the careting-in insertion.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("ordpath")

// Assign implements labels.Algebra: odd integers 1, 3, 5, ...
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	if n <= 0 {
		return nil, nil
	}
	out, row, comps := make([]labels.Code, n), make([]Code, n), make([]int64, n)
	for i := range row {
		comps[i] = int64(2*i + 1)
		row[i] = Code{comps: comps[i : i+1 : i+1]}
		out[i] = &row[i]
	}
	return out, nil
}

// Between implements labels.Algebra: the careting-in insertion. The
// new code is spelled in a buffer on the stack and copied into the
// chunks.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	l, r, err := labels.Neighbours[*Code](left, right)
	if err != nil {
		return nil, err
	}
	var lv, rv Code
	if l != nil {
		lv = *l
	}
	if r != nil {
		rv = *r
	}
	var buf [16]int64
	m, err := a.spell(buf[:0], lv, rv)
	if err != nil {
		return nil, err
	}
	h := labels.Cut(&a.heads, 1, headsMin, headsMax)
	h[0].comps = labels.Cut(&a.comps, len(m), compsMin, compsMax)
	copy(h[0].comps, m)
	return &h[0], nil
}

// spell appends to dst the components of the code between l and r (a
// zero Code is an open end), once they fit the budget.
func (a *Algebra) spell(dst []int64, l, r Code) ([]int64, error) {
	switch {
	case l.comps == nil && r.comps == nil:
		dst = append(dst, 1)
	case l.comps == nil:
		dst = beforeCode(dst, r.comps)
	case r.comps == nil:
		dst = afterCode(dst, l.comps)
	default:
		if a.Compare(&l, &r) >= 0 {
			return nil, fmt.Errorf("%w: %s not before %s", labels.ErrBadCode, l, r)
		}
		dst = a.betweenCodes(dst, l.comps, r.comps)
	}
	if err := checkBudget(dst); err != nil {
		return nil, err
	}
	return dst, nil
}

func checkBudget(comps []int64) error {
	total := 0
	for _, v := range comps {
		b, err := componentBits(v)
		if err != nil {
			return err
		}
		total += b
	}
	if total > MaxCodeBits {
		// A copy: formatting comps itself would move Between's stack
		// buffer to the heap on every call.
		return fmt.Errorf("%w: ORDPATH code %s needs %d bits (budget %d)",
			labels.ErrOverflow, Code{comps: slices.Clone(comps)}, total, MaxCodeBits)
	}
	return nil
}

// beforeCode appends to dst a code ordered before t: "a new node
// inserted to the left of all existing child nodes is labelled by adding
// -2 to the positional identifier of the left-most child node" (Figure
// 4's 1.1.-1).
func beforeCode(dst, t []int64) []int64 {
	v := t[0]
	if v%2 != 0 {
		return append(dst, v-2)
	}
	return append(dst, v-1)
}

// afterCode appends to dst a code ordered after t: "adding two to the
// positional identifier of the right-most child node" (Figure 4's 1.3.3).
func afterCode(dst, t []int64) []int64 {
	v := t[0]
	if v%2 != 0 {
		return append(dst, v+2)
	}
	return append(dst, v+1)
}

// betweenCodes appends to dst a code careted strictly between l and r.
func (a *Algebra) betweenCodes(dst, l, r []int64) []int64 {
	i := 0
	for i < len(l) && i < len(r) && l[i] == r[i] {
		i++
	}
	// Valid codes are prefix-free, so both sides still have components.
	x, y := l[i], r[i]
	dst = append(dst, l[:i]...)
	switch {
	case y-x > 1:
		a.counters.Divisions++
		mid := x + (y-x)/2
		if mid%2 != 0 {
			return append(dst, mid)
		}
		// Even midpoint: caret in and open a fresh odd level.
		return append(dst, mid, 1)
	case x%2 != 0:
		// x odd and y = x+1 even: l ends here, r continues; slide just
		// below r's continuation.
		return beforeCode(append(dst, y), r[i+1:])
	default:
		// x even: l continues; slide just above l's continuation.
		return afterCode(append(dst, x), l[i+1:])
	}
}

// Compare implements labels.Algebra: component-wise numeric order.
func (a *Algebra) Compare(p, q labels.Code) int {
	cp := p.(*Code)
	cq := q.(*Code)
	n := len(cp.comps)
	if len(cq.comps) < n {
		n = len(cq.comps)
	}
	for i := 0; i < n; i++ {
		switch {
		case cp.comps[i] < cq.comps[i]:
			return -1
		case cp.comps[i] > cq.comps[i]:
			return 1
		}
	}
	switch {
	case len(cp.comps) < len(cq.comps):
		return -1
	case len(cp.comps) > len(cq.comps):
		return 1
	default:
		return 0
	}
}

// New returns an ORDPATH labeling.
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:    "ordpath",
		Algebra: NewAlgebra(),
	})
}
