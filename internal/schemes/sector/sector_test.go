package sector_test

import (
	"fmt"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/sector"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// TestSectorGrading: sectors decide ancestry and order from the label
// and nothing else — no level, no parent test (the Partial XPath grade
// of Figure 7) — and an endpoint is one 40-bit fixed-point angle.
func TestSectorGrading(t *testing.T) {
	lab := sector.New()
	if lab.Name() != "sector" {
		t.Errorf("name %q", lab.Name())
	}
	if _, ok := lab.(labeling.AncestorByLabel); !ok {
		t.Error("sectors must decide ancestor-descendant")
	}
	if _, ok := lab.(labeling.LevelByLabel); ok {
		t.Error("sectors encode no level")
	}
	if _, ok := lab.(labeling.ParentByLabel); ok {
		t.Error("sectors cannot decide parent-child")
	}
	doc := xmltree.GenerateWide(2)
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	// Bulk endpoints are one gap apart, in visiting order.
	want := map[string]string{
		"root": fmt.Sprintf("%d:%d", 1*sector.Gap, 6*sector.Gap),
		"c0":   fmt.Sprintf("%d:%d", 2*sector.Gap, 3*sector.Gap),
		"c1":   fmt.Sprintf("%d:%d", 4*sector.Gap, 5*sector.Gap),
	}
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		l := lab.Label(n)
		if l.String() != want[n.Name()] || l.Bits() != 2*sector.Width {
			t.Errorf("%s: sector %s of %d bits, want %s of %d", n.Name(), l, l.Bits(), want[n.Name()], 2*sector.Width)
		}
		return true
	})
}

// TestSectorFrontInsertsExhaustTheGap: every insert before the first
// child takes its begin at the midpoint of what is left between the
// root's begin and the previous front's, so each halves the 2^18 gap and
// seventeen of them leave no integer in it. The eighteenth renumbers the
// whole document back onto the grid: one event, no overflow, and every
// node that had a label gets another — the root keeps its begin but not
// its end.
func TestSectorFrontInsertsExhaustTheGap(t *testing.T) {
	lab := sector.New()
	doc := xmltree.GenerateWide(4)
	s, err := update.NewSession(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	absorbed := 0
	for lab.Stats().RelabelEvents == 0 {
		if absorbed > 40 {
			t.Fatalf("%d front inserts and the 2^18 gap still has room", absorbed)
		}
		if _, err := s.InsertFirstChild(doc.Root(), "front"); err != nil {
			t.Fatal(err)
		}
		absorbed++
	}
	absorbed-- // the last one renumbered
	if absorbed != 17 {
		t.Errorf("the gap absorbed %d front inserts, want 17: one bit each, down to a gap of 2", absorbed)
	}
	before := int64(5 + absorbed) // the nodes the renumbering found labelled
	want := labeling.Stats{Assigned: before + 1, Relabeled: before, RelabelEvents: 1}
	if got := *lab.Stats(); got != want {
		t.Errorf("after the renumbering: %+v, want %+v", got, want)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// Back on the grid: endpoint i of the walk is (i+1) gaps.
	i := int64(0)
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		l := lab.Label(n).(containment.IntervalLabel)
		i++
		if got, want := l.Begin.String(), fmt.Sprint(i*sector.Gap); got != want {
			t.Errorf("%s begins at %s, want %s", n.Name(), got, want)
		}
		for _, c := range n.Children() {
			walk(c)
		}
		i++
		if got, want := l.End.String(), fmt.Sprint(i*sector.Gap); got != want {
			t.Errorf("%s ends at %s, want %s", n.Name(), got, want)
		}
	}
	walk(doc.Root())
	// And the next front insert is absorbed again.
	if _, err := s.InsertFirstChild(doc.Root(), "front"); err != nil {
		t.Fatal(err)
	}
	want.Assigned++
	if got := *lab.Stats(); got != want {
		t.Errorf("after one more front insert: %+v, want %+v", got, want)
	}
}
