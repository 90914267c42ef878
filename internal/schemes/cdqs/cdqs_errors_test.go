package cdqs

import (
	"errors"
	"testing"

	"xmldyn/internal/labels"
)

// TestAlgebraMetadata measures CDQS's Division-Computation and
// Recursive-Algorithm facts: the closed-form bulk routine and
// between-insertion neither divide nor recurse, so the algebra keeps no
// counters, and the codes they mint stay in order.
func TestAlgebraMetadata(t *testing.T) {
	a := NewAlgebra()
	if _, ok := any(a).(interface{ Counters() *labels.Counters }); ok {
		t.Error("algebra keeps counters; it neither divides nor recurses")
	}
	cs, err := a.Assign(50)
	if err != nil {
		t.Fatal(err)
	}
	m, err := a.Between(cs[0], cs[1])
	if err != nil {
		t.Fatal(err)
	}
	if a.Compare(cs[0], m) >= 0 || a.Compare(m, cs[1]) >= 0 {
		t.Errorf("Between(%v, %v) = %v, not between", cs[0], cs[1], m)
	}
}

func TestForeignCodesRejected(t *testing.T) {
	a := NewAlgebra()
	if _, err := a.Between(labels.IntCode{V: 1, Width: 8}, nil); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign left: %v", err)
	}
	if _, err := a.Between(nil, labels.BitString("01")); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign right: %v", err)
	}
	// A quaternary code is a *labels.QString; a value is foreign too.
	if _, err := a.Between(labels.QString("2"), nil); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("QString value: %v", err)
	}
}

func TestAssignZero(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(0)
	if err != nil || len(cs) != 0 {
		t.Fatalf("Assign(0): %v %v", cs, err)
	}
}

func TestFactoriesSmoke(t *testing.T) {
	if New().Name() != "cdqs" || NewRange().Name() != "cdqs-range" {
		t.Error("factory names")
	}
}
