package vector

import (
	"errors"
	"math/rand"
	"testing"

	"xmldyn/internal/labels"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

func TestGradientOrder(t *testing.T) {
	a := NewAlgebra()
	// (1,0) < (2,1) < (1,1) < (1,2) < (0,1) in gradient order.
	seq := []*Code{{2, 1}, {1, 1}, {1, 2}}
	for i := 1; i < len(seq); i++ {
		if a.Compare(seq[i-1], seq[i]) >= 0 {
			t.Fatalf("%s !< %s", seq[i-1], seq[i])
		}
	}
	if a.Compare(&Code{3, 6}, &Code{1, 2}) != 0 {
		t.Error("proportional vectors share a gradient")
	}
}

func TestMediantInsertion(t *testing.T) {
	a := NewAlgebra()
	l, r := &Code{1, 1}, &Code{1, 2}
	m, err := a.Between(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if *m.(*Code) != (Code{2, 3}) {
		t.Errorf("mediant = %s, want (2,3)", m)
	}
	if a.Compare(l, m) >= 0 || a.Compare(m, r) >= 0 {
		t.Error("mediant not strictly between")
	}
}

func TestAssignAscending(t *testing.T) {
	a := NewAlgebra()
	for _, n := range []int{1, 2, 3, 10, 100} {
		cs, err := a.Assign(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != n {
			t.Fatalf("n=%d: %d codes", n, len(cs))
		}
		if i := labels.CheckAscending(cs, a.Compare); i != -1 {
			t.Fatalf("n=%d: unsorted at %d", n, i)
		}
	}
	if a.Counters().MaxRecursion == 0 {
		t.Error("vector bulk assignment should be recursive")
	}
}

// TestSkewedGrowthLogarithmicBits verifies the §4/§5 claim the paper
// highlights: "under skewed insertions ... the vector label growth rate
// is much slower than QED". 100 fixed-position insertions leave the
// label around two bytes per component.
func TestSkewedGrowthLogarithmicBits(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(2)
	if err != nil {
		t.Fatal(err)
	}
	l, r := cs[0], cs[1]
	for i := 0; i < 100; i++ {
		m, err := a.Between(l, r)
		if err != nil {
			t.Fatal(err)
		}
		r = m
	}
	if bits := r.Bits(); bits > 40 {
		t.Errorf("after 100 skewed insertions the vector needs %d bits; expected logarithmic growth (<=40)", bits)
	}
}

// TestUTF8CeilingOverflow reproduces the paper's §4 question about
// vector components beyond 2^21: our codec surfaces ErrOverflow.
func TestUTF8CeilingOverflow(t *testing.T) {
	a := NewAlgebra()
	big := &Code{X: labels.MaxUTF8Value, Y: 1}
	// Inserting before-first adds the (1,0) bound: X crosses 2^21.
	_, err := a.Between(nil, big)
	if !errors.Is(err, labels.ErrOverflow) {
		t.Fatalf("want ErrOverflow past the UTF-8 ceiling, got %v", err)
	}
}

func TestVectorPrefixSession(t *testing.T) {
	doc := xmltree.Generate(xmltree.GenOptions{Seed: 2, MaxDepth: 4, MaxChildren: 4, AttrProb: 0.3})
	s, err := update.NewSession(doc, NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 800; i++ {
		nodes := doc.LabelledNodes()
		ref := nodes[rng.Intn(len(nodes))]
		if ref.Kind() != xmltree.KindElement {
			continue
		}
		if ref != doc.Root() && rng.Intn(2) == 0 {
			if _, err := s.InsertBefore(ref, "v"); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := s.AppendChild(ref, "v"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := s.Labeling().Stats(); st.Relabeled != 0 {
		t.Fatalf("vector relabelled %d nodes", st.Relabeled)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVectorRangeMountOrthogonal(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, NewRange())
	if err != nil {
		t.Fatal(err)
	}
	c1 := doc.FindElement("c1")
	for i := 0; i < 30; i++ {
		if _, err := s.InsertAfter(c1, "n"); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Labeling().Stats(); st.Relabeled != 0 {
		t.Fatalf("vector-range relabelled: %+v", *st)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBitsChargesLEBPastCeiling(t *testing.T) {
	small := Code{X: 100, Y: 7}
	if small.Bits() != 16 {
		t.Errorf("small vector bits = %d, want 16", small.Bits())
	}
	huge := Code{X: 1 << 30, Y: 1}
	if huge.Bits() <= 16 {
		t.Errorf("huge vector bits = %d, expected LEB128 cost", huge.Bits())
	}
}
