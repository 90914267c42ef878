package ordpath

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"xmldyn/internal/labels"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// TestFigure4ORDPATH reproduces the paper's Figure 4: the example tree
// bulk-labelled with odd components, then the three grey insertions —
// before-first under A (1.1.-1), after-last under B (1.3.3) and the
// careted middle insertion under C (1.5.2.1).
func TestFigure4ORDPATH(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, New())
	if err != nil {
		t.Fatal(err)
	}
	lab := s.Labeling()
	wantBase := map[string]string{
		"r": "1",
		"a": "1.1", "b": "1.3", "c": "1.5",
		"a1": "1.1.1", "a2": "1.1.3",
		"b1": "1.3.1",
		"c1": "1.5.1", "c2": "1.5.3", "c3": "1.5.5",
	}
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		if got := lab.Label(n).String(); got != wantBase[n.Name()] {
			t.Errorf("base %s: got %s, want %s", n.Name(), got, wantBase[n.Name()])
		}
		return true
	})

	// Grey node 1: before the first child of A -> negative component.
	n1, err := s.InsertFirstChild(doc.FindElement("a"), "g1")
	if err != nil {
		t.Fatal(err)
	}
	if got := lab.Label(n1).String(); got != "1.1.-1" {
		t.Errorf("before-first: got %s, want 1.1.-1", got)
	}
	// Grey node 2: after the last child of B -> +2.
	n2, err := s.AppendChild(doc.FindElement("b"), "g2")
	if err != nil {
		t.Fatal(err)
	}
	if got := lab.Label(n2).String(); got != "1.3.3" {
		t.Errorf("after-last: got %s, want 1.3.3", got)
	}
	// Grey node 3: between c1 (1.5.1) and c2 (1.5.3) -> caret 2 then 1.
	n3, err := s.InsertAfter(doc.FindElement("c1"), "g3")
	if err != nil {
		t.Fatal(err)
	}
	if got := lab.Label(n3).String(); got != "1.5.2.1" {
		t.Errorf("careting-in: got %s, want 1.5.2.1", got)
	}
	// ORDPATH never relabels for these insertions.
	if st := lab.Stats(); st.Relabeled != 0 {
		t.Errorf("ORDPATH relabelled %d nodes", st.Relabeled)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCodeGrammar(t *testing.T) {
	if _, err := NewCode(); !errors.Is(err, labels.ErrBadCode) {
		t.Error("empty code accepted")
	}
	if _, err := NewCode(2, 1); err != nil {
		t.Errorf("valid caret code rejected: %v", err)
	}
	if _, err := NewCode(1, 1); !errors.Is(err, labels.ErrBadCode) {
		t.Error("odd non-terminal accepted")
	}
	if _, err := NewCode(2); !errors.Is(err, labels.ErrBadCode) {
		t.Error("even terminal accepted")
	}
	c, err := NewCode(2, -4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != "2.-4.7" {
		t.Errorf("render: %s", c)
	}
}

// TestBetweenProperty hammers Between with random neighbour picks and
// checks strict betweenness, grammar validity and overall order.
func TestBetweenProperty(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(3)
	if err != nil {
		t.Fatal(err)
	}
	codes := cs
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		k := rng.Intn(len(codes) + 1)
		var l, r labels.Code
		if k > 0 {
			l = codes[k-1]
		}
		if k < len(codes) {
			r = codes[k]
		}
		m, err := a.Between(l, r)
		if err != nil {
			if errors.Is(err, labels.ErrOverflow) {
				continue // budget exhausted at this position; expected
			}
			t.Fatalf("step %d: %v", i, err)
		}
		mc := m.(*Code)
		if _, err := NewCode(mc.comps...); err != nil {
			t.Fatalf("step %d: invalid grammar %s: %v", i, mc, err)
		}
		if l != nil && a.Compare(l, m) >= 0 {
			t.Fatalf("step %d: %s not > %s", i, m, l)
		}
		if r != nil && a.Compare(m, r) >= 0 {
			t.Fatalf("step %d: %s not < %s", i, m, r)
		}
		codes = append(codes, nil)
		copy(codes[k+1:], codes[k:])
		codes[k] = m
	}
	if i := labels.CheckAscending(codes, a.Compare); i != -1 {
		t.Fatalf("sequence unsorted at %d", i)
	}
}

// TestOddNumberingWastesHalf quantifies the §3.1.2 observation: initial
// ORDPATH labels use only odd numbers, so for n children the largest
// component is 2n-1 — twice what a dense numbering needs.
func TestOddNumberingWastesHalf(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(100)
	if err != nil {
		t.Fatal(err)
	}
	last := cs[99].(*Code)
	if last.comps[0] != 199 {
		t.Errorf("last bulk component = %d, want 199", last.comps[0])
	}
}

func TestSkewedCaretingOverflows(t *testing.T) {
	// Repeatedly inserting between the two *newest* neighbours deepens
	// the caret chain until the code's bit budget is exhausted: the §4
	// overflow problem for a variable-length scheme.
	a := NewAlgebra()
	cs, err := a.Assign(2)
	if err != nil {
		t.Fatal(err)
	}
	l, r := cs[0], cs[1]
	sawOverflow := false
	for i := 0; i < 300; i++ {
		m, err := a.Between(l, r)
		if err != nil {
			if errors.Is(err, labels.ErrOverflow) {
				sawOverflow = true
				break
			}
			t.Fatal(err)
		}
		// Alternate which side the new code bounds to force depth.
		if i%2 == 0 {
			r = m
		} else {
			l = m
		}
	}
	if !sawOverflow {
		t.Fatal("expected caret-depth overflow within 300 adversarial insertions")
	}
}

func TestCompressedBitsGrowWithMagnitude(t *testing.T) {
	small, _ := NewCode(1)
	big, _ := NewCode(100001)
	if small.Bits() >= big.Bits() {
		t.Errorf("bits(1)=%d should be < bits(100001)=%d", small.Bits(), big.Bits())
	}
	caret, _ := NewCode(2, 1)
	if caret.Bits() <= small.Bits() {
		t.Error("caret code should cost more than a single component")
	}
}

// NewCode validates the grammar and returns a code.
func NewCode(comps ...int64) (Code, error) {
	if len(comps) == 0 {
		return Code{}, fmt.Errorf("%w: empty ORDPATH code", labels.ErrBadCode)
	}
	for i, c := range comps[:len(comps)-1] {
		if c%2 != 0 {
			return Code{}, fmt.Errorf("%w: non-terminal component %d at %d must be even", labels.ErrBadCode, c, i)
		}
	}
	if comps[len(comps)-1]%2 == 0 {
		return Code{}, fmt.Errorf("%w: terminal component %d must be odd", labels.ErrBadCode, comps[len(comps)-1])
	}
	out := make([]int64, len(comps))
	copy(out, comps)
	return Code{comps: out}, nil
}
