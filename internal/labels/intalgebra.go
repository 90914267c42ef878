package labels

import (
	"fmt"
	"strconv"
)

// IntCode is an integer positional identifier with a fixed storage width.
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

// IntAlgebra issues integer codes. It implements Algebra.
type IntAlgebra struct {
	cfg      IntAlgebraConfig
	counters Counters
	// bulk lists the boxed bulk codes Start + i·Gap of every algebra so
	// configured: relabelling k siblings costs a view of the list, not k
	// codes and not a copy of it.
	bulk *Bulk
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

// Name implements Algebra.
func (a *IntAlgebra) Name() string { return a.cfg.Name }

// Counters implements Instrumented.
func (a *IntAlgebra) Counters() *Counters { return &a.counters }

// Traits implements Algebra.
func (a *IntAlgebra) Traits() Traits {
	return Traits{
		Encoding:      RepFixed,
		DivisionFree:  true, // midpoint uses a shift, never a division
		RecursiveInit: false,
		OverflowFree:  false,
		Orthogonal:    false,
	}
}

func (a *IntAlgebra) max() int64 { return int64(1) << a.cfg.Width }

// Assign implements Algebra: Start, Start+Gap, Start+2*Gap, ...
func (a *IntAlgebra) Assign(n int) ([]Code, error) {
	a.counters.Assigns++
	if n <= 0 {
		return nil, nil
	}
	last := a.cfg.Start + int64(n-1)*a.cfg.Gap
	if last >= a.max() {
		a.counters.OverflowHits++
		return nil, fmt.Errorf("%w: %d codes at gap %d exceed %d-bit space", ErrOverflow, n, a.cfg.Gap, a.cfg.Width)
	}
	return a.bulk.Extend(n, func(i int) Code {
		return IntCode{V: a.cfg.Start + int64(i)*a.cfg.Gap, Width: a.cfg.Width}
	}), nil
}

// Between implements Algebra. An exhausted gap is the expected outcome
// of every dense insert (DeweyID takes it on each one) and the caller
// relabels without reading the text, so ErrNeedRelabel is returned bare.
func (a *IntAlgebra) Between(left, right Code) (Code, error) {
	a.counters.Betweens++
	var l, r int64
	hasL, hasR := left != nil, right != nil
	if hasL {
		lc, ok := left.(IntCode)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrBadCode, left)
		}
		l = lc.V
	}
	if hasR {
		rc, ok := right.(IntCode)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrBadCode, right)
		}
		r = rc.V
	}
	if hasL && hasR && l >= r {
		return nil, fmt.Errorf("%w: %d not before %d", ErrBadCode, l, r)
	}
	switch {
	case !hasL && !hasR:
		return IntCode{V: a.cfg.Start, Width: a.cfg.Width}, nil
	case !hasL: // before first
		if r <= a.cfg.Floor {
			a.counters.RelabelErrors++
			return nil, ErrNeedRelabel
		}
		if a.cfg.Midpoint {
			return IntCode{V: a.cfg.Floor + (r-a.cfg.Floor)>>1, Width: a.cfg.Width}, nil
		}
		return IntCode{V: r - 1, Width: a.cfg.Width}, nil
	case !hasR: // after last
		v := l + a.cfg.Gap
		if v >= a.max() {
			a.counters.OverflowHits++
			return nil, fmt.Errorf("%w: %d exceeds %d-bit space", ErrOverflow, v, a.cfg.Width)
		}
		return IntCode{V: v, Width: a.cfg.Width}, nil
	default:
		if r-l < 2 {
			a.counters.RelabelErrors++
			return nil, ErrNeedRelabel
		}
		if a.cfg.Midpoint {
			return IntCode{V: l + (r-l)>>1, Width: a.cfg.Width}, nil
		}
		return IntCode{V: l + 1, Width: a.cfg.Width}, nil
	}
}

// Compare implements Algebra.
func (a *IntAlgebra) Compare(x, y Code) int {
	xv := x.(IntCode).V
	yv := y.(IntCode).V
	switch {
	case xv < yv:
		return -1
	case xv > yv:
		return 1
	default:
		return 0
	}
}
