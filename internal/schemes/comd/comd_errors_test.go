package comd

import (
	"errors"
	"strings"
	"testing"

	"xmldyn/internal/labels"
)

// TestAlgebraMetadata measures Com-D's variable encoding: the first and
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
	if _, err := a.Between(nil, labels.BitString("01")); !errors.Is(err, labels.ErrBadCode) {
		t.Errorf("foreign right: %v", err)
	}
}

func TestCompressedBudgetBeatsRawBudget(t *testing.T) {
	// LSDX's raw 255-letter budget overflows under skewed growth;
	// Com-D's compressed budget doesn't, because "300 b's" compresses
	// to a few bytes — the entire point of the upgrade.
	a := NewAlgebra()
	cs, err := a.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	r := cs[0]
	for i := 0; i < 400; i++ {
		m, err := a.Between(nil, r)
		if err != nil {
			t.Fatalf("Com-D overflowed at %d: %v", i, err)
		}
		r = m
	}
	if raw := r.(Code).raw; len(raw) < 400 {
		t.Fatalf("raw letters: %d", len(raw))
	}
	if r.Bits() > 8*16 {
		t.Fatalf("compressed bits: %d", r.Bits())
	}
}

func TestAssignOrderedAndCompressedRender(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(30)
	if err != nil {
		t.Fatal(err)
	}
	if i := labels.CheckAscending(cs, a.Compare); i != -1 {
		t.Fatalf("unsorted at %d", i)
	}
	long := Code{raw: strings.Repeat("z", 30)}
	if got := long.String(); got != "30z" {
		t.Errorf("compressed render: %s", got)
	}
}
