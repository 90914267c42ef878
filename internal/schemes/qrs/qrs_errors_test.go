package qrs

import (
	"errors"
	"testing"

	"xmldyn/internal/labels"
)

// TestAlgebraMetadata measures QRS's Division-Computation and
// Recursive-Algorithm facts: bulk codes are counted out without
// recursion, and an interior midpoint is a division.
func TestAlgebraMetadata(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(50)
	if err != nil {
		t.Fatal(err)
	}
	if c := a.Counters(); c.MaxRecursion != 0 || c.Divisions != 0 {
		t.Errorf("after Assign: %+v", *c)
	}
	if _, err := a.Between(cs[0], cs[1]); err != nil {
		t.Fatal(err)
	}
	if a.Counters().Divisions != 1 {
		t.Errorf("after Between: %+v", *a.Counters())
	}
}

func TestBetweenEdges(t *testing.T) {
	a := NewAlgebra()
	// Empty bounds.
	code := func(v float64) labels.Code { c := Code(v); return &c }
	m, err := a.Between(nil, nil)
	if err != nil || *m.(*Code) != 1 {
		t.Errorf("empty bounds: %v %v", m, err)
	}
	// After last: +1, no division.
	m, err = a.Between(code(7), nil)
	if err != nil || *m.(*Code) != 8 {
		t.Errorf("after last: %v %v", m, err)
	}
	// Before first: midpoint of (0, r).
	m, err = a.Between(nil, code(8))
	if err != nil || *m.(*Code) != 4 {
		t.Errorf("before first: %v %v", m, err)
	}
	// Misorder.
	if _, err := a.Between(code(5), code(4)); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("misorder: %v", err)
	}
	// Foreign codes.
	if _, err := a.Between(labels.QString("2"), nil); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign left: %v", err)
	}
	if _, err := a.Between(nil, labels.QString("2")); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign right: %v", err)
	}
}

func TestCompareAndBits(t *testing.T) {
	a := NewAlgebra()
	one, two := Code(1), Code(2)
	if a.Compare(&one, &two) != -1 || a.Compare(&two, &one) != 1 || a.Compare(&one, &one) != 0 {
		t.Error("compare")
	}
	if Code(1.5).Bits() != 64 {
		t.Error("bits")
	}
	if Code(0.5).String() != "0.5" {
		t.Errorf("render: %s", Code(0.5))
	}
	if zero, err := a.Assign(0); err != nil || len(zero) != 0 {
		t.Errorf("Assign(0): %v %v", zero, err)
	}
}
