package dewey_test

import (
	"errors"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// figure3 is the paper's Figure 3: the DeweyID labels of the example
// tree.
var figure3 = map[string]string{
	"r": "1",
	"a": "1.1", "b": "1.2", "c": "1.3",
	"a1": "1.1.1", "a2": "1.1.2",
	"b1": "1.2.1",
	"c1": "1.3.1", "c2": "1.3.2", "c3": "1.3.3",
}

func checkLabels(t *testing.T, lab labeling.Interface, doc *xmltree.Document, want map[string]string) {
	t.Helper()
	seen := 0
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		seen++
		l := lab.Label(n)
		if l == nil || l.String() != want[n.Name()] {
			t.Errorf("%s: label %v, want %s", n.Name(), l, want[n.Name()])
		} else if got, want := l.Bits(), dewey.Width*(n.Depth()+1); got != want {
			t.Errorf("%s: %d bits, want one %d-bit component a level = %d", n.Name(), got, dewey.Width, want)
		}
		return true
	})
	if seen != len(want) {
		t.Errorf("%d labelled nodes, %d expected", seen, len(want))
	}
}

// TestFigure3Labels: the n-th child's positional identifier is n, and a
// label is the parent's with that identifier appended — Figure 3, at one
// fixed-width component a level.
func TestFigure3Labels(t *testing.T) {
	lab := dewey.New()
	if lab.Name() != "deweyid" {
		t.Errorf("name %q", lab.Name())
	}
	doc := xmltree.ExampleTree()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	checkLabels(t, lab, doc, figure3)
	if got, want := *lab.Stats(), (labeling.Stats{Assigned: int64(len(figure3))}); got != want {
		t.Errorf("Build counted %+v, want %+v", got, want)
	}
}

// TestFrontInsertRelabelsNine: there is no position before child 1, so a
// new first child of the root takes 1.1 and pushes the root's three
// children and their six descendants one position on — nine labels
// change for one insert (§3.1.2), in one event, and nothing above or
// before them moves.
func TestFrontInsertRelabelsNine(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, dewey.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertFirstChild(doc.Root(), "new"); err != nil {
		t.Fatal(err)
	}
	checkLabels(t, s.Labeling(), doc, map[string]string{
		"r":   "1",
		"new": "1.1",
		"a":   "1.2", "b": "1.3", "c": "1.4",
		"a1": "1.2.1", "a2": "1.2.2",
		"b1": "1.3.1",
		"c1": "1.4.1", "c2": "1.4.2", "c3": "1.4.3",
	})
	want := labeling.Stats{Assigned: int64(len(figure3)) + 1, Relabeled: 9, RelabelEvents: 1}
	if got := *s.Labeling().Stats(); got != want {
		t.Errorf("after the front insert: %+v, want %+v", got, want)
	}
	// Behind the last sibling is the one free position: nothing moves.
	if _, err := s.AppendChild(doc.Root(), "last"); err != nil {
		t.Fatal(err)
	}
	want.Assigned++
	if got := *s.Labeling().Stats(); got != want {
		t.Errorf("after the append: %+v, want %+v", got, want)
	}
	if got := s.Labeling().Label(doc.FindElement("last")).String(); got != "1.5" {
		t.Errorf("the appended child is labelled %s, want 1.5", got)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDenseComponents: the component algebra counts from 1 without gaps
// — no code before the first, none between neighbours, the next integer
// behind the last — and a position a deletion freed is reusable.
func TestDenseComponents(t *testing.T) {
	a := dewey.NewAlgebra()
	cs, err := a.Assign(3)
	if err != nil || len(cs) != 3 || cs[0].String() != "1" || cs[2].String() != "3" {
		t.Fatalf("Assign(3) = %v, %v", cs, err)
	}
	if _, err := a.Between(nil, cs[0]); !errors.Is(err, labels.ErrNeedRelabel) {
		t.Errorf("before child 1: %v", err)
	}
	if _, err := a.Between(cs[0], cs[1]); !errors.Is(err, labels.ErrNeedRelabel) {
		t.Errorf("between children 1 and 2: %v", err)
	}
	if c, err := a.Between(cs[2], nil); err != nil || c.String() != "4" || c.Bits() != dewey.Width {
		t.Errorf("behind child 3: %v, %v", c, err)
	}
	if c, err := a.Between(cs[0], cs[2]); err != nil || c.String() != "2" {
		t.Errorf("in the position child 2 left: %v, %v", c, err)
	}
}
