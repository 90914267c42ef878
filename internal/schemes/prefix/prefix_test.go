package prefix_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/prefix"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// TestFigure3DeweyID verifies the DeweyID labels of the paper's Figure 3
// on the example tree.
func TestFigure3DeweyID(t *testing.T) {
	doc := xmltree.ExampleTree()
	lab := dewey.New()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"r": "1",
		"a": "1.1", "b": "1.2", "c": "1.3",
		"a1": "1.1.1", "a2": "1.1.2",
		"b1": "1.2.1",
		"c1": "1.3.1", "c2": "1.3.2", "c3": "1.3.3",
	}
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		if got := lab.Label(n).String(); got != want[n.Name()] {
			t.Errorf("%s: got %s, want %s", n.Name(), got, want[n.Name()])
		}
		return true
	})
}

// TestDeweyRelabelOnFrontInsert verifies the §3.1.2 claim: "the insertion
// of new nodes requires the relabelling of any following-sibling nodes
// (and their descendants)".
func TestDeweyRelabelOnFrontInsert(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, dewey.New())
	if err != nil {
		t.Fatal(err)
	}
	r := doc.Root()
	// Insert before the first child of the root: all 3 children plus
	// their 6 descendants must be relabelled.
	if _, err := s.InsertFirstChild(r, "new"); err != nil {
		t.Fatal(err)
	}
	st := s.Labeling().Stats()
	if st.Relabeled != 9 {
		t.Errorf("relabelled = %d, want 9 (3 children + 6 descendants)", st.Relabeled)
	}
	if st.RelabelEvents != 1 {
		t.Errorf("relabel events = %d, want 1", st.RelabelEvents)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := s.Labeling().Label(doc.FindElement("new")).String(); got != "1.1" {
		t.Errorf("new node label = %s, want 1.1", got)
	}
	if got := s.Labeling().Label(doc.FindElement("a")).String(); got != "1.2" {
		t.Errorf("shifted sibling label = %s, want 1.2", got)
	}
}

// TestDeweyAppendDoesNotRelabel: appending after the last sibling is the
// one cheap DeweyID insertion.
func TestDeweyAppendDoesNotRelabel(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, dewey.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendChild(doc.Root(), "tail"); err != nil {
		t.Fatal(err)
	}
	if st := s.Labeling().Stats(); st.Relabeled != 0 {
		t.Errorf("append relabelled %d nodes", st.Relabeled)
	}
	if got := s.Labeling().Label(doc.FindElement("tail")).String(); got != "1.4" {
		t.Errorf("appended label = %s, want 1.4", got)
	}
}

// TestDeweyMidInsertRelabelsFollowersOnly: inserting between c1 and c2
// relabels only the following siblings of the insertion point.
func TestDeweyMidInsertRelabelsFollowersOnly(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, dewey.New())
	if err != nil {
		t.Fatal(err)
	}
	c1 := doc.FindElement("c1")
	if _, err := s.InsertAfter(c1, "mid"); err != nil {
		t.Fatal(err)
	}
	st := s.Labeling().Stats()
	// c2 and c3 shift; c1 keeps 1.3.1.
	if st.Relabeled != 2 {
		t.Errorf("relabelled = %d, want 2", st.Relabeled)
	}
	if got := s.Labeling().Label(doc.FindElement("c1")).String(); got != "1.3.1" {
		t.Errorf("c1 = %s, want unchanged 1.3.1", got)
	}
	if got := s.Labeling().Label(doc.FindElement("mid")).String(); got != "1.3.2" {
		t.Errorf("mid = %s, want 1.3.2", got)
	}
	if got := s.Labeling().Label(doc.FindElement("c3")).String(); got != "1.3.4" {
		t.Errorf("c3 = %s, want 1.3.4", got)
	}
}

func TestPrefixRelationships(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := dewey.New().(interface {
		labeling.Interface
		labeling.AncestorByLabel
		labeling.ParentByLabel
		labeling.SiblingByLabel
		labeling.LevelByLabel
	})
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	book := lab.Label(doc.FindElement("book"))
	publisher := lab.Label(doc.FindElement("publisher"))
	editor := lab.Label(doc.FindElement("editor"))
	name := lab.Label(doc.FindElement("name"))
	address := lab.Label(doc.FindElement("address"))
	title := lab.Label(doc.FindElement("title"))

	if !lab.IsAncestor(book, name) || !lab.IsAncestor(publisher, name) {
		t.Error("ancestor evaluation failed")
	}
	if lab.IsAncestor(name, book) || lab.IsAncestor(name, name) {
		t.Error("ancestor must be proper and directional")
	}
	if !lab.IsParent(editor, name) || lab.IsParent(publisher, name) {
		t.Error("parent evaluation failed")
	}
	if !lab.IsSibling(name, address) || lab.IsSibling(name, editor) || lab.IsSibling(name, name) {
		t.Error("sibling evaluation failed")
	}
	if lvl, ok := lab.Level(title); !ok || lvl != 1 {
		t.Errorf("title level = %d/%v, want 1", lvl, ok)
	}
	if lvl, _ := lab.Level(book); lvl != 0 {
		t.Errorf("book level = %d, want 0", lvl)
	}
}

func TestPrefixCompareAgainstDocOrder(t *testing.T) {
	doc := xmltree.Generate(xmltree.GenOptions{Seed: 3, MaxDepth: 4, MaxChildren: 5, AttrProb: 0.4})
	lab := dewey.New()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	if err := labeling.VerifyOrder(lab, doc); err != nil {
		t.Fatal(err)
	}
	// Cross-check arbitrary pairs, not just adjacent ones.
	nodes := doc.LabelledNodes()
	for i := 0; i < len(nodes); i += 3 {
		for j := 0; j < len(nodes); j += 5 {
			got := lab.Compare(lab.Label(nodes[i]), lab.Label(nodes[j]))
			want := xmltree.DocOrderCompare(nodes[i], nodes[j])
			if got != want {
				t.Fatalf("Compare(%s,%s)=%d, want %d", nodes[i].Name(), nodes[j].Name(), got, want)
			}
		}
	}
}

func TestPrefixDeletionForgetsLabels(t *testing.T) {
	doc := xmltree.SampleBook()
	s, err := update.NewSession(doc, dewey.New())
	if err != nil {
		t.Fatal(err)
	}
	pub := doc.FindElement("publisher")
	if err := s.Delete(pub); err != nil {
		t.Fatal(err)
	}
	if s.Labeling().Label(pub) != nil {
		t.Error("deleted subtree still labelled")
	}
	if got := s.Counters().Deletes; got != 6 {
		t.Errorf("deleted labellable count = %d, want 6", got)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixBadAlgebraPropagates(t *testing.T) {
	// A 4-bit Dewey cannot bulk-assign 20 siblings: Build must fail.
	lab := prefix.New(prefix.Config{
		Name: "tiny-dewey",
		Algebra: labels.MustIntAlgebra(labels.IntAlgebraConfig{
			Name: "tiny-int", Start: 1, Gap: 1, Width: 4,
		}),
	})
	doc := xmltree.GenerateWide(20)
	if err := lab.Build(doc); err == nil {
		t.Fatal("expected bulk-assign overflow error")
	}
}

// TestLabelAllocations pins the cost of materialising one prefix label:
// one allocation, the boxed Path with its components inline, for a path
// of up to eight components (the deepest node of a generated corpus);
// a deeper one adds its component slice. Every prefix scheme shares
// Label; commit-time verification does not call it for a pair
// CompareNodes decides, readers and error reports still do.
func TestLabelAllocations(t *testing.T) {
	doc := xmltree.GenerateDeep(12)
	lab := dewey.New()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	var sink labeling.Label
	for _, c := range []struct {
		depth int
		want  string
		max   float64
	}{
		{6, "1.1.1.1.1.1.1", 1},
		{7, "1.1.1.1.1.1.1.1", 1},
		{8, "1.1.1.1.1.1.1.1.1", 2},
	} {
		n := doc.Root()
		for range c.depth {
			n = n.Children()[0]
		}
		if got := lab.Label(n).String(); got != c.want {
			t.Fatalf("depth-%d label = %s, want %s", c.depth, got, c.want)
		}
		if a := testing.AllocsPerRun(100, func() { sink = lab.Label(n) }); a > c.max {
			t.Errorf("Label of a depth-%d node allocates %.0f times, want at most %.0f", c.depth, a, c.max)
		}
	}
	_ = sink
}

// TestLabelOfGeneratedCorpus: every label of a QED BaseDocument(1, 1000)
// is one allocation, and the labels read as they always have — the same
// total bits and the same text (an FNV-64a of every label's String in
// document order).
func TestLabelOfGeneratedCorpus(t *testing.T) {
	doc := workload.BaseDocument(1, 1000)
	lab := qed.NewPrefix()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	if got := labeling.TotalBits(lab, doc); got != qedBaseBits {
		t.Errorf("TotalBits = %d, want %d", got, qedBaseBits)
	}
	h := fnv.New64a()
	var sink labeling.Label
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		fmt.Fprintln(h, lab.Label(n))
		if a := testing.AllocsPerRun(10, func() { sink = lab.Label(n) }); a > 1 {
			t.Fatalf("Label of %q at depth %d allocates %.0f times, want at most 1", n.Name(), n.Depth(), a)
		}
		return true
	})
	_ = sink
	if got := h.Sum64(); got != qedBaseDigest {
		t.Errorf("label text digest = %#x, want %#x", got, qedBaseDigest)
	}
}

// The readings of TestLabelOfGeneratedCorpus, as two allocations a label
// read them.
const (
	qedBaseBits          = 26358
	qedBaseDigest uint64 = 0xcb69cf6a4fd2f2fb
)

// TestRelabelAllocsIndependentOfSiblings: a DeweyID front insert
// relabels every sibling and pays for none of them — the new codes are a
// view of the algebra's shared list. Among 8 siblings and among 2 048 it
// allocates the same number of times, and the bytes do not scale (a copy
// of the list would be 32 KB an insert at 2 048).
func TestRelabelAllocsIndependentOfSiblings(t *testing.T) {
	cost := func(siblings int) (allocs float64, bytes uint64) {
		doc := xmltree.GenerateWide(siblings)
		s, err := update.NewSession(doc, dewey.New())
		if err != nil {
			t.Fatal(err)
		}
		// The last sibling leaves, so the list keeps its length and the
		// next front insert finds no free position either.
		insert := func() {
			if _, err := s.InsertFirstChild(doc.Root(), "front"); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(doc.Root().LastChild()); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 100
		allocs = testing.AllocsPerRun(runs, insert) // its warm-up run grows the shared list
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			insert()
		}
		runtime.ReadMemStats(&after)
		if got, want := s.Labeling().Stats().Relabeled, int64(siblings)*(2*runs+1); got != want {
			t.Fatalf("%d siblings: %d relabelled, want every sibling every time = %d", siblings, got, want)
		}
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	fewAllocs, fewBytes := cost(8)
	manyAllocs, manyBytes := cost(2048)
	t.Logf("a front insert and a delete: %v allocations and %d B among 8 siblings, %v and %d B among 2048", fewAllocs, fewBytes, manyAllocs, manyBytes)
	if fewAllocs != manyAllocs {
		t.Errorf("a front insert allocates %v times among 8 siblings and %v among 2048", fewAllocs, manyAllocs)
	}
	if manyBytes > fewBytes+256 {
		t.Errorf("a front insert allocates %d B among 8 siblings and %d B among 2048", fewBytes, manyBytes)
	}
}

// TestRelabelSiblingsKeepsTheCodesItCannotReplace: when the algebra
// cannot supply the relabel's codes, the attempt is counted and every
// code is what it was — siblings, their descendants, and no code for the
// node that could not be placed.
func TestRelabelSiblingsKeepsTheCodesItCannotReplace(t *testing.T) {
	lab := prefix.New(prefix.Config{
		Name: "tiny-dewey",
		Algebra: labels.MustIntAlgebra(labels.IntAlgebraConfig{
			Name: "tiny-int", Start: 1, Gap: 1, Width: 4,
		}),
	})
	doc := xmltree.GenerateWide(15) // a 4-bit component holds 1..15
	if err := doc.Root().FirstChild().AppendChild(xmltree.NewElement("below")); err != nil {
		t.Fatal(err)
	}
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	before, stats := labeling.Snapshot(lab, doc), *lab.Stats()
	front := xmltree.NewElement("front")
	if err := doc.Root().PrependChild(front); err != nil {
		t.Fatal(err)
	}
	if err := lab.NodeInserted(front); !errors.Is(err, labels.ErrOverflow) {
		t.Fatalf("a 16th sibling under a 4-bit DeweyID: %v", err)
	}
	front.Detach()
	if lab.Label(front) != nil {
		t.Errorf("the node that could not be placed is labelled %s", lab.Label(front))
	}
	for n, now := range labeling.Snapshot(lab, doc) {
		if now != before[n] {
			t.Errorf("%s: label %s became %s in a relabel that failed", n.Name(), before[n], now)
		}
	}
	stats.RelabelEvents++  // the attempt
	stats.OverflowEvents++ // and why it failed
	if got := *lab.Stats(); got != stats {
		t.Errorf("after the failed relabel: %+v, want %+v", got, stats)
	}
}
