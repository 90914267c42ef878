package comd

import (
	"strings"
	"testing"

	"xmldyn/internal/schemes/lsdx"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

func TestRenderMatchesLSDXShape(t *testing.T) {
	doc := xmltree.ExampleTree()
	lab := New()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	if got := lab.Label(doc.Root()).String(); got != "0a" {
		t.Errorf("root: %s", got)
	}
	if got := lab.Label(doc.FindElement("c1")).String(); got != "2ad.b" {
		t.Errorf("c1: %s", got)
	}
}

// TestCompressionShrinksRepetitiveLabels: the Com-D upgrade is visible
// exactly when LSDX labels grow repetitive letters — e.g. under skewed
// before-first insertions, which prefix 'a' each time.
func TestCompressionShrinksRepetitiveLabels(t *testing.T) {
	la := lsdx.NewAlgebra()
	ca := NewAlgebra()
	lCode, err := la.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	cCode, err := ca.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	l, c := lCode[0], cCode[0]
	for i := 0; i < 40; i++ {
		l, err = la.Between(nil, l)
		if err != nil {
			t.Fatal(err)
		}
		c, err = ca.Between(nil, c)
		if err != nil {
			t.Fatal(err)
		}
	}
	if c.(Code).raw != l.String() {
		t.Fatalf("Com-D letters diverged from LSDX: %q vs %q", c.(Code).raw, l)
	}
	if c.Bits() >= l.Bits() {
		t.Errorf("compressed bits %d !< raw bits %d", c.Bits(), l.Bits())
	}
	if !strings.HasPrefix(c.String(), "40a") {
		t.Errorf("compressed form: %s", c)
	}
}

func TestInheritsCollisionDefect(t *testing.T) {
	a := NewAlgebra()
	x, err := a.Between(Code{raw: "b"}, Code{raw: "c"})
	if err != nil {
		t.Fatal(err)
	}
	y, err := a.Between(Code{raw: "b"}, x)
	if err != nil {
		t.Fatal(err)
	}
	if a.Compare(x, y) != 0 {
		t.Fatalf("expected the inherited LSDX collision, got %s and %s", x, y)
	}
}

func TestSessionStorm(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, New())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.AppendChild(doc.FindElement("b"), "k"); err != nil {
			t.Fatal(err)
		}
	}
	// Append-only storms stay collision-free: order must hold.
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if st := s.Labeling().Stats(); st.Relabeled != 0 {
		t.Fatalf("Com-D relabelled: %+v", *st)
	}
}
