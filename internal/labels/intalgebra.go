package labels

import (
	"fmt"
	"strconv"
)

// IntCode is an integer positional identifier with a fixed storage width.
// As a Code, an integer code is a *IntCode (IntAlgebra): the algebra
// accepts no other form.
type IntCode struct {
	V     int64
	Width int // storage width in bits
}

// String implements Code.
func (c IntCode) String() string { return strconv.FormatInt(c.V, 10) }

// Bits implements Code: fixed-width integer codes always occupy their
// full width, which is exactly why they are subject to the overflow
// problem (§4).
func (c IntCode) Bits() int { return c.Width }

// IntAlgebraConfig parameterises an integer code algebra.
type IntAlgebraConfig struct {
	// Name of the algebra instance (e.g. "dewey", "interval-gap16").
	Name string
	// Start is the first code value assigned during bulk loading.
	Start int64
	// Gap is the spacing between consecutive bulk codes: 1 gives the
	// dense numbering of DeweyID and plain containment; larger values
	// are the sparse-allocation extensions [17, 9, 11] that "only
	// postpone the relabelling process" (paper §3.1.1).
	Gap int64
	// Width bounds the code space to [0, 2^Width); exceeding it is the
	// overflow problem.
	Width int
	// Midpoint, when set, makes Between bisect the available gap
	// (shift-based; no arithmetic division). When unset, insertion
	// after the last sibling extends by Gap but interior insertion
	// requires a free integer between the neighbours.
	Midpoint bool
	// Floor is the smallest assignable code value; defaults to Start.
	// Insertion before a first code at the floor forces a relabel
	// (DeweyID has no position before child 1).
	Floor int64
}

// IntAlgebra issues integer codes. It implements Algebra. *IntCode is
// the one boxed form of a code; Between cuts it from heads.
type IntAlgebra struct {
	cfg IntAlgebraConfig
	// bulk lists the boxed bulk codes Start + i·Gap of every algebra so
	// configured: relabelling k siblings costs a view of the list, not k
	// codes and not a copy of it.
	bulk  *Bulk
	heads []IntCode
}

// NewIntAlgebra validates cfg and returns the algebra.
func NewIntAlgebra(cfg IntAlgebraConfig) (*IntAlgebra, error) {
	if cfg.Width <= 1 || cfg.Width > 62 {
		return nil, fmt.Errorf("labels: int algebra width %d out of range (2..62)", cfg.Width)
	}
	if cfg.Gap < 1 {
		return nil, fmt.Errorf("labels: int algebra gap %d must be >= 1", cfg.Gap)
	}
	if cfg.Start < 0 {
		return nil, fmt.Errorf("labels: int algebra start %d must be >= 0", cfg.Start)
	}
	if cfg.Floor == 0 {
		cfg.Floor = cfg.Start
	}
	if cfg.Floor > cfg.Start {
		return nil, fmt.Errorf("labels: int algebra floor %d above start %d", cfg.Floor, cfg.Start)
	}
	return &IntAlgebra{cfg: cfg, bulk: BulkFor(cfg)}, nil
}

// MustIntAlgebra is NewIntAlgebra that panics on config errors (for
// static scheme constructors with known-good configs).
func MustIntAlgebra(cfg IntAlgebraConfig) *IntAlgebra {
	a, err := NewIntAlgebra(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

func (a *IntAlgebra) max() int64 { return int64(1) << a.cfg.Width }

// Assign implements Algebra: Start, Start+Gap, Start+2*Gap, ...
func (a *IntAlgebra) Assign(n int) ([]Code, error) {
	if n <= 0 {
		return nil, nil
	}
	last := a.cfg.Start + int64(n-1)*a.cfg.Gap
	if last >= a.max() {
		return nil, fmt.Errorf("%w: %d codes at gap %d exceed %d-bit space", ErrOverflow, n, a.cfg.Gap, a.cfg.Width)
	}
	return a.bulk.Extend(n, func(codes []Code, from int) {
		Box[IntCode](codes)
		for i, c := range codes {
			*c.(*IntCode) = IntCode{V: a.cfg.Start + int64(from+i)*a.cfg.Gap, Width: a.cfg.Width}
		}
	}), nil
}

// code is v cut from the algebra's chunk.
func (a *IntAlgebra) code(v int64) Code {
	h := Cut(&a.heads, 1, HeadsMin, HeadsMax)
	h[0] = IntCode{V: v, Width: a.cfg.Width}
	return &h[0]
}

// Between implements Algebra. An exhausted gap is the expected outcome
// of every dense insert (DeweyID takes it on each one) and the caller
// relabels without reading the text, so ErrNeedRelabel is returned bare.
func (a *IntAlgebra) Between(left, right Code) (Code, error) {
	l, r, err := Neighbours[*IntCode](left, right)
	if err != nil {
		return nil, err
	}
	switch {
	case l == nil && r == nil:
		return a.code(a.cfg.Start), nil
	case l == nil: // before first
		if r.V <= a.cfg.Floor {
			return nil, ErrNeedRelabel
		}
		if a.cfg.Midpoint {
			return a.code(a.cfg.Floor + (r.V-a.cfg.Floor)>>1), nil
		}
		return a.code(r.V - 1), nil
	case r == nil: // after last
		v := l.V + a.cfg.Gap
		if v >= a.max() {
			return nil, fmt.Errorf("%w: %d exceeds %d-bit space", ErrOverflow, v, a.cfg.Width)
		}
		return a.code(v), nil
	case l.V >= r.V:
		return nil, fmt.Errorf("%w: %d not before %d", ErrBadCode, l.V, r.V)
	case r.V-l.V < 2:
		return nil, ErrNeedRelabel
	case a.cfg.Midpoint:
		return a.code(l.V + (r.V-l.V)>>1), nil
	default:
		return a.code(l.V + 1), nil
	}
}

// Compare implements Algebra.
func (a *IntAlgebra) Compare(x, y Code) int {
	xv := x.(*IntCode).V
	yv := y.(*IntCode).V
	switch {
	case xv < yv:
		return -1
	case xv > yv:
		return 1
	default:
		return 0
	}
}
