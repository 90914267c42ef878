package cdqs

import (
	"errors"
	"testing"

	"xmldyn/internal/labels"
)

// TestAlgebraMetadata measures CDQS's Division-Computation and
// Recursive-Algorithm facts: the closed-form bulk routine and
// between-insertion neither divide nor recurse.
func TestAlgebraMetadata(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Between(cs[0], cs[1]); err != nil {
		t.Fatal(err)
	}
	if c := a.Counters(); c.Assigns != 1 || c.Betweens != 1 || c.Divisions != 0 || c.MaxRecursion != 0 {
		t.Errorf("counters: %+v", *c)
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
