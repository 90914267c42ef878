package qed

import (
	"errors"
	"testing"

	"xmldyn/internal/labels"
)

// TestAlgebraMetadata measures QED's variable encoding: bulk codes
// differ in size.
func TestAlgebraMetadata(t *testing.T) {
	cs, err := NewAlgebra().Assign(50)
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].Bits() == cs[len(cs)/2].Bits() && cs[0].Bits() == cs[len(cs)-1].Bits() {
		t.Errorf("fixed-size codes: %v", cs)
	}
}

func TestForeignCodesRejected(t *testing.T) {
	a := NewAlgebra()
	if _, err := a.Between(labels.BitString("01"), nil); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign left: %v", err)
	}
	if _, err := a.Between(nil, labels.IntCode{V: 1, Width: 8}); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign right: %v", err)
	}
	// A quaternary code is a *labels.QString; a value is foreign too.
	if _, err := a.Between(labels.QString("2"), nil); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("QString value: %v", err)
	}
}

func TestAssignZeroAndCounters(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(0)
	if err != nil || len(cs) != 0 {
		t.Fatalf("Assign(0): %v %v", cs, err)
	}
	if _, err := a.Assign(50); err != nil {
		t.Fatal(err)
	}
	c := a.Counters()
	if c.MaxRecursion == 0 || c.Divisions == 0 {
		t.Errorf("counters: %+v", *c)
	}
}

func TestRangeFactorySmoke(t *testing.T) {
	lab := NewRange()
	if lab.Name() != "qed-range" {
		t.Errorf("range name: %s", lab.Name())
	}
	if NewPrefix().Name() != "qed" {
		t.Error("prefix name")
	}
}
