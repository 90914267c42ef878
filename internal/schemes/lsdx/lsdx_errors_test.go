package lsdx

import (
	"errors"
	"testing"

	"xmldyn/internal/labels"
)

// TestAlgebraMetadata measures LSDX's variable encoding: the first and
// the last of 30 bulk codes differ in size.
func TestAlgebraMetadata(t *testing.T) {
	cs, err := NewAlgebra().Assign(30)
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].Bits() == cs[len(cs)-1].Bits() {
		t.Errorf("fixed-size codes: %v", cs)
	}
}

func TestForeignCodesRejected(t *testing.T) {
	a := NewAlgebra()
	if _, err := a.Between(labels.QString("2"), nil); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign left: %v", err)
	}
	if _, err := a.Between(nil, labels.IntCode{V: 1, Width: 8}); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign right: %v", err)
	}
}

func TestLengthBudgetOverflow(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	r := cs[0]
	overflowed := false
	for i := 0; i < MaxCodeBytes+10; i++ {
		m, err := a.Between(nil, r)
		if err != nil {
			if errors.Is(err, labels.ErrOverflow) {
				overflowed = true
				break
			}
			t.Fatal(err)
		}
		r = m
	}
	if !overflowed {
		t.Fatal("LSDX length budget never overflowed")
	}
	// The unbounded variant keeps going.
	u := NewUnboundedAlgebra()
	cs, err = u.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	r = cs[0]
	for i := 0; i < MaxCodeBytes+10; i++ {
		if r, err = u.Between(nil, r); err != nil {
			t.Fatalf("unbounded overflowed: %v", err)
		}
	}
}

func TestAssignZeroAndBits(t *testing.T) {
	a := NewAlgebra()
	if cs, err := a.Assign(0); err != nil || len(cs) != 0 {
		t.Errorf("Assign(0): %v %v", cs, err)
	}
	if Code("ab").Bits() != 16 {
		t.Error("bits per letter")
	}
}
