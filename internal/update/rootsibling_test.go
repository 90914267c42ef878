package update_test

import (
	"errors"
	"testing"

	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// TestRootSiblingRejected: a document has exactly one root element, so
// sibling insertion relative to the root must fail for every entry
// point.
func TestRootSiblingRejected(t *testing.T) {
	doc := xmltree.SampleBook()
	s, err := update.NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if _, err := s.InsertBefore(root, "x"); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("InsertBefore root: %v", err)
	}
	if _, err := s.InsertAfter(root, "x"); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("InsertAfter root: %v", err)
	}
	if _, err := s.Do(update.InsertSubtreeBeforeOp(root, xmltree.NewElement("x"))); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("InsertSubtreeBefore root: %v", err)
	}
	if _, err := s.Do(update.InsertSubtreeAfterOp(root, xmltree.NewElement("x"))); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("InsertSubtreeAfter root: %v", err)
	}
	editor := doc.FindElement("editor")
	if _, err := s.Apply([]update.Op{update.DeleteOp(editor), update.InsertSubtreeBeforeOp(root, editor)}); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("move before root: %v", err)
	}
	if _, err := s.Apply([]update.Op{update.DeleteOp(editor), update.InsertSubtreeAfterOp(root, editor)}); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("move after root: %v", err)
	}
	// Detached references still report detachment.
	if _, err := s.InsertBefore(xmltree.NewElement("loose"), "x"); !errors.Is(err, update.ErrDetachedRef) {
		t.Errorf("detached ref: %v", err)
	}
	// The document is still a single-rooted valid tree.
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionRefusesSecondRoot: no session holds a document with two
// root elements. NewSession refuses one, and an insert under the
// document node refuses to add a second root; replacing the root in one
// transaction is not a second root.
func TestSessionRefusesSecondRoot(t *testing.T) {
	two := xmltree.NewDocument()
	for _, name := range []string{"a", "b"} {
		if err := two.Node().AppendChild(xmltree.NewElement(name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := update.NewSession(two, qed.NewPrefix()); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("NewSession of a two-root document: %v, want ErrRootSibling", err)
	}

	doc := xmltree.SampleBook()
	s, err := update.NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	before, top := doc.XML(), doc.Node()
	for _, op := range []update.Op{
		update.AppendChildOp(top, "x"),
		update.InsertFirstChildOp(top, "x"),
		update.AppendSubtreeOp(top, xmltree.NewElement("x")),
		update.InsertSubtreeFirstOp(top, xmltree.NewElement("x")),
	} {
		if _, err := s.Do(op); !errors.Is(err, update.ErrRootSibling) {
			t.Errorf("%v under the document node: %v, want ErrRootSibling", op.Kind, err)
		}
	}
	editor := doc.FindElement("editor")
	if _, err := s.Apply([]update.Op{update.DeleteOp(editor), update.AppendSubtreeOp(top, editor)}); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("move under the document node: %v, want ErrRootSibling", err)
	}
	if doc.XML() != before {
		t.Fatalf("refused ops changed the document:\n%s", doc.XML())
	}

	if _, err := s.Apply([]update.Op{update.DeleteOp(doc.Root()), update.AppendChildOp(top, "fresh")}); err != nil {
		t.Fatalf("replacing the root: %v", err)
	}
	if doc.RootCount() != 1 || doc.Root().Name() != "fresh" {
		t.Fatalf("after replacing the root: %s", doc.XML())
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSubtreeFirst(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	sub := xmltree.NewElement("front")
	if err := sub.AppendChild(xmltree.NewElement("inner")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(update.InsertSubtreeFirstOp(doc.FindElement("c"), sub)); err != nil {
		t.Fatal(err)
	}
	if doc.FindElement("c").FirstChild() != sub {
		t.Fatal("subtree not first")
	}
	if s.Labeling().Label(sub) == nil || s.Labeling().Label(sub.FirstChild()) == nil {
		t.Fatal("subtree unlabelled")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}
