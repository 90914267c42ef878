package containment_test

import (
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// TestFigure1PrePostLabels verifies the XPath Accelerator labels against
// the paper's Figure 1(b).
func TestFigure1PrePostLabels(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := containment.NewPrePost()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"book": "0,9", "title": "1,1", "genre": "2,0", "author": "3,2",
		"publisher": "4,8", "editor": "5,5", "name": "6,3",
		"address": "7,4", "edition": "8,7", "year": "9,6",
	}
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		if got := lab.Label(n).String(); got != want[n.Name()] {
			t.Errorf("%s: got %s, want %s", n.Name(), got, want[n.Name()])
		}
		return true
	})
}

func TestPrePostDietzProperty(t *testing.T) {
	doc := xmltree.Generate(xmltree.GenOptions{Seed: 5, MaxDepth: 4, MaxChildren: 5, AttrProb: 0.3})
	lab := containment.NewPrePost()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	nodes := doc.LabelledNodes()
	for _, u := range nodes {
		for _, v := range nodes {
			if u == v {
				continue
			}
			got := lab.IsAncestor(lab.Label(u), lab.Label(v))
			if got != u.IsAncestorOf(v) {
				t.Fatalf("IsAncestor(%s,%s)=%v, truth %v", u.Name(), v.Name(), got, u.IsAncestorOf(v))
			}
		}
	}
}

func TestPrePostParentAndLevel(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := containment.NewPrePost()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	editor := lab.Label(doc.FindElement("editor"))
	name := lab.Label(doc.FindElement("name"))
	publisher := lab.Label(doc.FindElement("publisher"))
	if !lab.IsParent(editor, name) {
		t.Error("editor should be parent of name")
	}
	if lab.IsParent(publisher, name) {
		t.Error("publisher is grandparent, not parent, of name")
	}
	if lvl, ok := lab.Level(name); !ok || lvl != 3 {
		t.Errorf("name level = %d/%v", lvl, ok)
	}
}

// TestPrePostGlobalRelabelling verifies the §3.1 claim that global order
// is unsuitable for dynamic documents: one front insertion moves the
// ranks of every following node.
func TestPrePostGlobalRelabelling(t *testing.T) {
	doc := xmltree.GenerateWide(50)
	s, err := update.NewSession(doc, containment.NewPrePost())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertFirstChild(doc.Root(), "front"); err != nil {
		t.Fatal(err)
	}
	st := s.Labeling().Stats()
	// All 50 prior children shift (pre and post ranks), and the root's
	// post rank moves too.
	if st.Relabeled < 50 {
		t.Errorf("relabelled = %d, want >= 50", st.Relabeled)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalXRelStyle(t *testing.T) {
	alg := labels.MustIntAlgebra(labels.IntAlgebraConfig{
		Name: "xrel-int", Start: 1, Gap: 1, Width: 32, Floor: 1,
	})
	lab := containment.NewInterval(containment.IntervalConfig{
		Name: "xrel", Algebra: alg, WithLevel: true,
	}).(*containment.LevelledInterval)
	doc := xmltree.SampleBook()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	if err := labeling.VerifyOrder(lab, doc); err != nil {
		t.Fatal(err)
	}
	book := lab.Label(doc.FindElement("book"))
	name := lab.Label(doc.FindElement("name"))
	editor := lab.Label(doc.FindElement("editor"))
	if !lab.IsAncestor(book, name) || lab.IsAncestor(name, book) {
		t.Error("interval ancestor test failed")
	}
	if !lab.IsParent(editor, name) {
		t.Error("interval parent test failed")
	}
	if lvl, ok := lab.Level(name); !ok || lvl != 3 {
		t.Errorf("interval level = %d/%v", lvl, ok)
	}
	// The level-less variant must not advertise the capabilities.
	plain := containment.NewInterval(containment.IntervalConfig{Name: "plain", Algebra: alg})
	if _, ok := plain.(labeling.ParentByLabel); ok {
		t.Error("level-less interval must not implement ParentByLabel")
	}
	if _, ok := plain.(labeling.LevelByLabel); ok {
		t.Error("level-less interval must not implement LevelByLabel")
	}
}

// TestIntervalDenseRenumbers: with gap 1 every insertion exhausts the
// region immediately and triggers a global renumbering.
func TestIntervalDenseRenumbers(t *testing.T) {
	alg := labels.MustIntAlgebra(labels.IntAlgebraConfig{
		Name: "dense-int", Start: 1, Gap: 1, Width: 32, Floor: 1,
	})
	lab := containment.NewInterval(containment.IntervalConfig{Name: "dense", Algebra: alg})
	doc := xmltree.GenerateWide(20)
	s, err := update.NewSession(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertFirstChild(doc.Root(), "x"); err != nil {
		t.Fatal(err)
	}
	st := lab.Stats()
	if st.RelabelEvents == 0 || st.Relabeled == 0 {
		t.Fatalf("dense interval should renumber: %+v", *st)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalRenumberInsideGraft: a nested subtree grafted into a dense
// interval labelling exhausts the gap at its first node, and the
// renumbering labels the whole attached subtree at once; the later
// nodes of the graft must keep those labels (re-carving their intervals
// over their own descendants broke containment, or failed outright).
func TestIntervalRenumberInsideGraft(t *testing.T) {
	doc := xmltree.GenerateWide(6)
	s, err := update.NewSession(doc, containment.NewXRel())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := xmltree.ParseString(`<g a="1"><k b="2"><m/><n c="3"/></k><l/></g>`)
	if err != nil {
		t.Fatal(err)
	}
	root := sub.Root()
	root.Detach()
	if err := s.InsertSubtreeAfter(doc.Root().FirstChild(), root); err != nil {
		t.Fatalf("graft: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	lab := s.Labeling()
	anc := lab.(labeling.AncestorByLabel)
	if !anc.IsAncestor(lab.Label(root), lab.Label(root.FirstChild().FirstChild())) {
		t.Fatal("grafted root's interval does not contain its grandchild's")
	}
	if want := int64(doc.LabelledCount()); lab.Stats().Assigned != want {
		t.Fatalf("Assigned = %d, want one per labelled node = %d", lab.Stats().Assigned, want)
	}
}

// TestIntervalGapPostponesRelabelling reproduces the §3.1.1 claim about
// the gap extensions [17,9,11]: gaps absorb a few insertions and "only
// postpone the relabelling process until the interval gaps have been
// consumed".
func TestIntervalGapPostponesRelabelling(t *testing.T) {
	alg := labels.MustIntAlgebra(labels.IntAlgebraConfig{
		Name: "gap16", Start: 16, Gap: 16, Width: 32, Floor: 1, Midpoint: true,
	})
	lab := containment.NewInterval(containment.IntervalConfig{Name: "interval-gap16", Algebra: alg})
	doc := xmltree.GenerateWide(4)
	s, err := update.NewSession(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	ref := doc.Root().Children()[1]
	insertions := 0
	for i := 0; i < 40; i++ {
		if _, err := s.InsertAfter(ref, "k"); err != nil {
			t.Fatal(err)
		}
		insertions++
		if lab.Stats().RelabelEvents > 0 {
			break
		}
	}
	st := lab.Stats()
	if st.RelabelEvents == 0 {
		t.Fatal("gap never exhausted in 40 skewed insertions")
	}
	if insertions < 2 {
		t.Fatalf("gap absorbed only %d insertions; expected a postponement", insertions)
	}
	t.Logf("gap of 16 absorbed %d skewed insertions before renumbering", insertions-1)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalOrthogonalQEDMount: mounting QED codes as interval
// endpoints keeps insertions relabel-free — the §5.1 orthogonality
// property in action.
func TestIntervalOrthogonalQEDMount(t *testing.T) {
	lab := qed.NewRange()
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	c1 := doc.FindElement("c1")
	for i := 0; i < 50; i++ {
		if _, err := s.InsertAfter(c1, "n"); err != nil {
			t.Fatal(err)
		}
	}
	if st := lab.Stats(); st.Relabeled != 0 || st.RelabelEvents != 0 {
		t.Fatalf("QED-range relabelled: %+v", *st)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// Ancestor evaluation must survive the storm.
	type ancestorLab interface {
		IsAncestor(a, d labeling.Label) bool
	}
	al := lab.(ancestorLab)
	c := doc.FindElement("c")
	for _, k := range c.Children() {
		if !al.IsAncestor(lab.Label(c), lab.Label(k)) {
			t.Fatalf("lost containment for %s", k.Name())
		}
	}
}

func TestIntervalDeletionKeepsOrder(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := containment.NewPrePost()
	s, err := update.NewSession(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(doc.FindElement("editor")); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if lab.Label(doc.FindElement("edition")) == nil {
		t.Fatal("surviving node lost its label")
	}
}
