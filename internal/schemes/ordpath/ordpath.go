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
// total order.
type Code struct {
	comps []int64
}

// NewCode validates the grammar and returns a code.
func NewCode(comps ...int64) (Code, error) {
	if len(comps) == 0 {
		return Code{}, fmt.Errorf("%w: empty ORDPATH code", labels.ErrBadCode)
	}
	for i, c := range comps[:len(comps)-1] {
		if c%2 != 0 {
			return Code{}, fmt.Errorf("%w: non-terminal component %d at %d must be even", labels.ErrBadCode, c, i)
		}
	}
	if comps[len(comps)-1]%2 == 0 {
		return Code{}, fmt.Errorf("%w: terminal component %d must be odd", labels.ErrBadCode, comps[len(comps)-1])
	}
	out := make([]int64, len(comps))
	copy(out, comps)
	return Code{comps: out}, nil
}

// Components returns a copy of the component values.
func (c Code) Components() []int64 {
	out := make([]int64, len(c.comps))
	copy(out, c.comps)
	return out
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

// Algebra is the ORDPATH code algebra.
type Algebra struct {
	counters labels.Counters
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// Name implements labels.Algebra.
func (a *Algebra) Name() string { return "ordpath" }

// Counters implements labels.Instrumented.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// Traits implements labels.Algebra: sequential (non-recursive) initial
// labelling, midpoint divisions during careting, variable encoding,
// subject to overflow, not orthogonal (the careting grammar is tied to
// the prefix mounting).
func (a *Algebra) Traits() labels.Traits {
	return labels.Traits{
		Encoding:      labels.RepVariable,
		DivisionFree:  false,
		RecursiveInit: false,
		OverflowFree:  false,
		Orthogonal:    false,
	}
}

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("ordpath")

// Assign implements labels.Algebra: odd integers 1, 3, 5, ...
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	a.counters.Assigns++
	if n <= 0 {
		return nil, nil
	}
	out := make([]labels.Code, n)
	for i := 0; i < n; i++ {
		out[i] = Code{comps: []int64{int64(2*i + 1)}}
	}
	return out, nil
}

// Between implements labels.Algebra: the careting-in insertion.
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
	var m Code
	switch {
	case l.comps == nil && r.comps == nil:
		m = Code{comps: []int64{1}}
	case l.comps == nil:
		m = beforeCode(r)
	case r.comps == nil:
		m = afterCode(l)
	default:
		if a.Compare(l, r) >= 0 {
			return nil, fmt.Errorf("%w: %s not before %s", labels.ErrBadCode, l, r)
		}
		m = a.betweenCodes(l, r)
	}
	if err := checkBudget(m); err != nil {
		a.counters.OverflowHits++
		return nil, err
	}
	return m, nil
}

func checkBudget(c Code) error {
	total := 0
	for _, v := range c.comps {
		b, err := componentBits(v)
		if err != nil {
			return err
		}
		total += b
	}
	if total > MaxCodeBits {
		return fmt.Errorf("%w: ORDPATH code %s needs %d bits (budget %d)", labels.ErrOverflow, c, total, MaxCodeBits)
	}
	return nil
}

// beforeCode produces a code ordered before t: "a new node inserted to
// the left of all existing child nodes is labelled by adding -2 to the
// positional identifier of the left-most child node" (Figure 4's 1.1.-1).
func beforeCode(t Code) Code {
	v := t.comps[0]
	if v%2 != 0 {
		return Code{comps: []int64{v - 2}}
	}
	return Code{comps: []int64{v - 1}}
}

// afterCode produces a code ordered after t: "adding two to the
// positional identifier of the right-most child node" (Figure 4's 1.3.3).
func afterCode(t Code) Code {
	v := t.comps[0]
	if v%2 != 0 {
		return Code{comps: []int64{v + 2}}
	}
	return Code{comps: []int64{v + 1}}
}

// betweenCodes carets a new code strictly between l and r.
func (a *Algebra) betweenCodes(l, r Code) Code {
	i := 0
	for i < len(l.comps) && i < len(r.comps) && l.comps[i] == r.comps[i] {
		i++
	}
	// Valid codes are prefix-free, so both sides still have components.
	x, y := l.comps[i], r.comps[i]
	common := append([]int64{}, l.comps[:i]...)
	switch {
	case y-x > 1:
		a.counters.Divisions++
		mid := x + (y-x)/2
		if mid%2 != 0 {
			return Code{comps: append(common, mid)}
		}
		// Even midpoint: caret in and open a fresh odd level.
		return Code{comps: append(common, mid, 1)}
	case x%2 != 0:
		// x odd and y = x+1 even: l ends here, r continues; slide just
		// below r's continuation.
		tail := beforeCode(Code{comps: r.comps[i+1:]})
		return Code{comps: append(append(common, y), tail.comps...)}
	default:
		// x even: l continues; slide just above l's continuation.
		tail := afterCode(Code{comps: l.comps[i+1:]})
		return Code{comps: append(append(common, x), tail.comps...)}
	}
}

// Compare implements labels.Algebra: component-wise numeric order.
func (a *Algebra) Compare(p, q labels.Code) int {
	cp := p.(Code)
	cq := q.(Code)
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

func toCode(c labels.Code) (Code, error) {
	if c == nil {
		return Code{}, nil
	}
	oc, ok := c.(Code)
	if !ok {
		return Code{}, fmt.Errorf("%w: %T is not an ORDPATH code", labels.ErrBadCode, c)
	}
	return oc, nil
}

// Level counts the odd components of a full ORDPATH label: "the level or
// depth of each node in the tree may be determined by counting the
// number of odd component values in the label" (§3.1.2). Exposed for the
// figure generator; the prefix labeling's Level uses path length.
func Level(path []labels.Code) int {
	level := 0
	for _, c := range path {
		for _, v := range c.(Code).comps {
			if v%2 != 0 {
				level++
			}
		}
	}
	return level - 1
}

// New returns an ORDPATH labeling.
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:    "ordpath",
		Algebra: NewAlgebra(),
	})
}

// Factory returns fresh ORDPATH instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return New() }
}
