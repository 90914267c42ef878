// Package dln implements the Dynamic Level Numbering scheme of Böhme &
// Rahm [3] (paper §3.1.2): Dewey-style labels whose components are
// fixed-bit-length integers, with arbitrary insertions supported by
// appending sublevel values between two consecutive positional
// identifiers (rendered "2/1" for the first sublevel under position 2).
// The fixed component width means the scheme "may overflow and thus ...
// will succumb to the same limitations as the DeweyID scheme using
// sparse allocation of labels".
package dln

import (
	"fmt"
	"strconv"
	"strings"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/prefix"
)

// DefaultWidth is the component bit width used by New. Small enough that
// overflow is reachable in experiments, large enough for realistic
// documents (65534 siblings).
const DefaultWidth = 16

// Code is a DLN positional identifier: a primary position optionally
// extended by sublevel values. A proper sublevel extension orders after
// its base: 2 < 2/1 < 2/2 < 3.
type Code struct {
	vals  []uint64
	width int
}

// String renders the sublevel chain: "2", "2/1", "2/1/3".
func (c Code) String() string {
	parts := make([]string, len(c.vals))
	for i, v := range c.vals {
		parts[i] = strconv.FormatUint(v, 10)
	}
	return strings.Join(parts, "/")
}

// Bits implements labels.Code: each value occupies the fixed width plus
// one continuation bit marking whether a sublevel follows.
func (c Code) Bits() int { return len(c.vals) * (c.width + 1) }

// Algebra is the DLN code algebra for a given component width.
type Algebra struct {
	width    int
	counters labels.Counters
	bulk     *labels.Bulk // the bulk codes every algebra of this width shares
}

// bulkKind names the bulk table of the algebras of one width.
type bulkKind int

// NewAlgebra returns a DLN algebra with the given component bit width.
func NewAlgebra(width int) (*Algebra, error) {
	if width < 2 || width > 62 {
		return nil, fmt.Errorf("dln: width %d out of range (2..62)", width)
	}
	return &Algebra{width: width, bulk: labels.BulkFor(bulkKind(width))}, nil
}

// MustAlgebra panics on bad width (static constructors).
func MustAlgebra(width int) *Algebra {
	a, err := NewAlgebra(width)
	if err != nil {
		panic(err)
	}
	return a
}

// Name implements labels.Algebra.
func (a *Algebra) Name() string { return fmt.Sprintf("dln-%dbit", a.width) }

// Counters implements labels.Instrumented.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// Traits implements labels.Algebra.
func (a *Algebra) Traits() labels.Traits {
	return labels.Traits{
		Encoding:      labels.RepFixed,
		DivisionFree:  true, // midpoints are shifts on the fixed grid
		RecursiveInit: false,
		OverflowFree:  false,
		Orthogonal:    false,
	}
}

func (a *Algebra) max() uint64 { return uint64(1)<<a.width - 1 }

// Assign implements labels.Algebra: positions 1..n at the primary level.
func (a *Algebra) Assign(n int) ([]labels.Code, error) {
	return a.bulk.Assign(n, &a.counters, a.assign)
}

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	a.counters.Assigns++
	if n <= 0 {
		return nil, nil
	}
	if uint64(n) > a.max() {
		a.counters.OverflowHits++
		return nil, fmt.Errorf("%w: %d siblings exceed the %d-bit component", labels.ErrOverflow, n, a.width)
	}
	out := make([]labels.Code, n)
	for i := 0; i < n; i++ {
		out[i] = Code{vals: []uint64{uint64(i + 1)}, width: a.width}
	}
	return out, nil
}

// Between implements labels.Algebra.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	a.counters.Betweens++
	l, err := toCode(left, a.width)
	if err != nil {
		return nil, err
	}
	r, err := toCode(right, a.width)
	if err != nil {
		return nil, err
	}
	switch {
	case l.vals == nil && r.vals == nil:
		return Code{vals: []uint64{1}, width: a.width}, nil
	case l.vals == nil:
		// Before the first sibling: a smaller primary value if one is
		// free; sublevels only order *after* their base, so position 1
		// has no room before it and forces a relabel — DLN is not
		// persistent.
		if r.vals[0] > 1 {
			return Code{vals: []uint64{r.vals[0] - 1}, width: a.width}, nil
		}
		a.counters.RelabelErrors++
		return nil, fmt.Errorf("%w: no DLN position before %s", labels.ErrNeedRelabel, r)
	case r.vals == nil:
		// After the last sibling: bump the primary value.
		v := l.vals[0] + 1
		if v > a.max() {
			a.counters.OverflowHits++
			return nil, fmt.Errorf("%w: component %d exceeds %d bits", labels.ErrOverflow, v, a.width)
		}
		return Code{vals: []uint64{v}, width: a.width}, nil
	default:
		if compare(l, r) >= 0 {
			return Code{}, fmt.Errorf("%w: %s not before %s", labels.ErrBadCode, l, r)
		}
		return a.betweenCodes(l, r)
	}
}

func (a *Algebra) betweenCodes(l, r Code) (labels.Code, error) {
	i := 0
	for i < len(l.vals) && i < len(r.vals) && l.vals[i] == r.vals[i] {
		i++
	}
	if i < len(l.vals) && i < len(r.vals) {
		x, y := l.vals[i], r.vals[i]
		if y-x > 1 {
			// Free slot at this sublevel: take the midpoint (shift).
			return Code{vals: append(append([]uint64{}, l.vals[:i]...), x+(y-x)>>1), width: a.width}, nil
		}
		// Consecutive values at level i. Any code sharing l's prefix up
		// to and including level i stays below r, so grow inside l:
		// bump l's deepest value if it is deeper than i, else open a
		// fresh sublevel under l.
		if len(l.vals)-1 > i {
			last := l.vals[len(l.vals)-1]
			if last < a.max() {
				room := a.max() - last
				v := last + (room+1)>>1 // in (last, max]
				vals := append([]uint64{}, l.vals...)
				vals[len(vals)-1] = v
				return Code{vals: vals, width: a.width}, nil
			}
		}
		return a.extend(l)
	}
	if i == len(l.vals) {
		// l is a proper prefix of r (l < l/k...): go below r's next
		// value. Sublevel positions admit 0, so only a 0 next value is
		// a dead end.
		next := r.vals[i]
		if next >= 1 {
			return Code{vals: append(append([]uint64{}, r.vals[:i]...), next>>1), width: a.width}, nil
		}
		a.counters.RelabelErrors++
		return nil, fmt.Errorf("%w: no DLN sublevel between %s and %s", labels.ErrNeedRelabel, l, r)
	}
	// r is a proper prefix of l — impossible for l < r since extensions
	// order after their base.
	return nil, fmt.Errorf("%w: inconsistent DLN pair %s, %s", labels.ErrBadCode, l, r)
}

// extend appends a sublevel midway through the fresh value space.
func (a *Algebra) extend(l Code) (labels.Code, error) {
	if (len(l.vals)+1)*(a.width+1) > 255 {
		a.counters.OverflowHits++
		return nil, fmt.Errorf("%w: DLN sublevel chain for %s exceeds the label budget", labels.ErrOverflow, l)
	}
	mid := a.max() >> 1
	if mid == 0 {
		mid = 1
	}
	return Code{vals: append(append([]uint64{}, l.vals...), mid), width: a.width}, nil
}

// Compare implements labels.Algebra: value-wise, a base before its
// sublevels.
func (a *Algebra) Compare(p, q labels.Code) int {
	return compare(p.(Code), q.(Code))
}

func compare(x, y Code) int {
	n := len(x.vals)
	if len(y.vals) < n {
		n = len(y.vals)
	}
	for i := 0; i < n; i++ {
		switch {
		case x.vals[i] < y.vals[i]:
			return -1
		case x.vals[i] > y.vals[i]:
			return 1
		}
	}
	switch {
	case len(x.vals) < len(y.vals):
		return -1
	case len(x.vals) > len(y.vals):
		return 1
	default:
		return 0
	}
}

func toCode(c labels.Code, width int) (Code, error) {
	if c == nil {
		return Code{}, nil
	}
	dc, ok := c.(Code)
	if !ok {
		return Code{}, fmt.Errorf("%w: %T is not a DLN code", labels.ErrBadCode, c)
	}
	if dc.width != width {
		return Code{}, fmt.Errorf("%w: DLN width mismatch %d != %d", labels.ErrBadCode, dc.width, width)
	}
	return dc, nil
}

// New returns a DLN labeling at the default component width.
func New() labeling.Interface { return NewWithWidth(DefaultWidth) }

// NewWithWidth returns a DLN labeling with the given component width
// (small widths make the overflow experiments fast).
func NewWithWidth(width int) labeling.Interface {
	return prefix.New(prefix.Config{
		Name:    "dln",
		Algebra: MustAlgebra(width),
	})
}

// Factory returns fresh DLN instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return New() }
}
