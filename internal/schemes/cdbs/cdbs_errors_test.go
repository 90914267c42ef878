package cdbs

import (
	"errors"
	"testing"

	"xmldyn/internal/labels"
)

// TestAlgebraMetadata measures CDBS's Division-Computation and
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
	if _, err := a.Between(labels.QString("2"), nil); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign left: %v", err)
	}
	if _, err := a.Between(nil, labels.IntCode{V: 3, Width: 8}); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign right: %v", err)
	}
	// *BitString is the one boxed form: a BitString value is refused too.
	one, err := a.Between(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]labels.Code{{labels.BitString("1"), nil}, {nil, labels.BitString("1")}, {one, labels.BitString("11")}} {
		if got, err := a.Between(pair[0], pair[1]); !errors.Is(err, labels.ErrBadCode) || got != nil {
			t.Errorf("Between(%#v, %#v) = %v, %v; want ErrBadCode", pair[0], pair[1], got, err)
		}
	}
}

func TestCompareAndAssignEdge(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Compare(cs[0], cs[1]) >= 0 || a.Compare(cs[2], cs[0]) <= 0 {
		t.Error("compare ordering")
	}
	if zero, err := a.Assign(0); err != nil || len(zero) != 0 {
		t.Errorf("Assign(0): %v %v", zero, err)
	}
}
