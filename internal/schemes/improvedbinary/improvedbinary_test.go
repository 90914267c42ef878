package improvedbinary

import (
	"errors"
	"testing"

	"xmldyn/internal/labels"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// TestFigure6ImprovedBinary verifies the Figure 6 labelling of the
// example tree's top level and the three published insertion rules.
func TestFigure6ImprovedBinary(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, New())
	if err != nil {
		t.Fatal(err)
	}
	lab := s.Labeling()
	// Top-level codes for three children: 01, 0101, 011 (leftmost 01,
	// rightmost 011, middle from AssignMiddleSelfLabel).
	want := map[string]string{"a": "01", "b": "0101", "c": "011"}
	for name, w := range want {
		n := doc.FindElement(name)
		// The root path contributes its own component; strip it by
		// reading the rendered path's last dot component.
		got := lastComponent(lab.Label(n).String())
		if got != w {
			t.Errorf("%s: positional identifier %s, want %s", name, got, w)
		}
	}

	// Before-first: final 1 becomes 01 (e.g. 01 -> 001).
	g1, err := s.InsertFirstChild(doc.FindElement("a"), "g1")
	if err != nil {
		t.Fatal(err)
	}
	if got := lastComponent(lab.Label(g1).String()); got != "001" {
		t.Errorf("before-first: %s, want 001", got)
	}
	// After-last: extra 1 concatenated.
	var lastKid *xmltree.Node
	for _, k := range xmltree.LabelledChildren(doc.FindElement("c")) {
		lastKid = k
	}
	lastCode := lastComponent(lab.Label(lastKid).String())
	g2, err := s.AppendChild(doc.FindElement("c"), "g2")
	if err != nil {
		t.Fatal(err)
	}
	if got := lastComponent(lab.Label(g2).String()); got != lastCode+"1" {
		t.Errorf("after-last: %s, want %s1", got, lastCode)
	}
	if st := lab.Stats(); st.Relabeled != 0 {
		t.Errorf("ImprovedBinary relabelled %d nodes", st.Relabeled)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func lastComponent(s string) string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return s[i+1:]
		}
	}
	return s
}

// TestLengthFieldOverflow: skewed before-first insertions grow the code
// one bit each until the 8-bit length field can no longer describe it —
// the §4 overflow problem for a variable-length scheme.
func TestLengthFieldOverflow(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	r := cs[0]
	overflowAt := 0
	for i := 1; i <= 400; i++ {
		m, err := a.Between(nil, r)
		if err != nil {
			if errors.Is(err, labels.ErrOverflow) {
				overflowAt = i
				break
			}
			t.Fatal(err)
		}
		r = m
	}
	if overflowAt == 0 {
		t.Fatal("no overflow within 400 skewed insertions")
	}
	// Code starts at 2 bits and grows ~1 bit per insertion: overflow
	// should arrive near MaxCodeBits.
	if overflowAt < MaxCodeBits-10 || overflowAt > MaxCodeBits+10 {
		t.Errorf("overflow at insertion %d, expected near %d", overflowAt, MaxCodeBits)
	}
	if a.Counters().OverflowHits == 0 {
		t.Error("overflow not counted")
	}
}

// TestOverflowTriggersRelabelInSession: when the algebra overflows, the
// prefix labeling falls back to a bulk relabel of the sibling list.
func TestOverflowTriggersRelabelInSession(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, New())
	if err != nil {
		t.Fatal(err)
	}
	a := doc.FindElement("a")
	for i := 0; i < MaxCodeBits+5; i++ {
		if _, err := s.InsertFirstChild(a, "w"); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	st := s.Labeling().Stats()
	if st.OverflowEvents == 0 {
		t.Fatal("expected an overflow event in the session")
	}
	if st.RelabelEvents == 0 || st.Relabeled == 0 {
		t.Fatalf("overflow should force relabelling: %+v", *st)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRecursiveInitCounted(t *testing.T) {
	a := NewAlgebra()
	if _, err := a.Assign(64); err != nil {
		t.Fatal(err)
	}
	if a.Counters().MaxRecursion < 3 {
		t.Errorf("recursion depth = %d, want >= 3 for 64 codes", a.Counters().MaxRecursion)
	}
	if a.Counters().Divisions == 0 {
		t.Error("middle-position divisions not counted")
	}
	if !a.Traits().RecursiveInit {
		t.Error("trait must declare recursive initial labelling")
	}
}
