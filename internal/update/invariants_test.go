package update_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/cdqs"
	"xmldyn/internal/schemes/dde"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/schemes/vector"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// TestOrderInvariantQuick is the central property of the whole library
// (paper §1: element order "must be maintained in the presence of
// updates"): for any seed-derived update stream on any persistent
// scheme, labels order exactly as the document does, and no
// pre-existing label moves.
func TestOrderInvariantQuick(t *testing.T) {
	factories := map[string]labeling.Factory{
		"qed":     qed.NewPrefix,
		"cdqs":    cdqs.New,
		"ordpath": ordpath.New,
		"vector":  vector.NewPrefix,
		"dde":     func() labeling.Interface { return dde.New() },
	}
	for name, factory := range factories {
		name, factory := name, factory
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f := func(seed int64) bool {
				doc := xmltree.Generate(xmltree.GenOptions{
					Seed: seed % 4096, MaxDepth: 3, MaxChildren: 3, AttrProb: 0.25, TextProb: 0.25,
				})
				s, err := update.NewSession(doc, factory())
				if err != nil {
					return false
				}
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 60; i++ {
					if err := stormOpWithMoves(rng, s, doc); err != nil {
						return false
					}
				}
				// Moves re-label the moved subtree by design, so the
				// property here is order + structural validity; pure
				// persistence (storms without moves) is covered by
				// TestPersistenceContract.
				return s.Verify() == nil && doc.Validate() == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// move moves the subtree rooted at n to where graft puts it relative
// to ref: a delete and a graft of the same root in one op list, the one
// form a move has.
func move(s *update.Session, n *xmltree.Node, graft func(ref, root *xmltree.Node) update.Op, ref *xmltree.Node) error {
	_, err := s.Apply([]update.Op{update.DeleteOp(n), graft(ref, n)})
	return err
}

// TestMoveSubtree verifies moves across schemes: the subtree survives,
// gets fresh labels at the destination, and order holds.
func TestMoveSubtree(t *testing.T) {
	for _, factory := range []labeling.Factory{qed.NewPrefix, ordpath.New} {
		doc := xmltree.SampleBook()
		s, err := update.NewSession(doc, factory())
		if err != nil {
			t.Fatal(err)
		}
		editor := doc.FindElement("editor")
		title := doc.FindElement("title")
		if err := move(s, editor, update.InsertSubtreeAfterOp, title); err != nil {
			t.Fatal(err)
		}
		if editor.Parent() != doc.Root() {
			t.Fatal("editor not moved to book level")
		}
		if s.Labeling().Label(editor) == nil || s.Labeling().Label(doc.FindElement("name")) == nil {
			t.Fatal("moved subtree unlabelled")
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
		// Document order: title < editor < author now.
		lab := s.Labeling()
		if lab.Compare(lab.Label(title), lab.Label(editor)) >= 0 {
			t.Fatal("editor not after title")
		}
		if lab.Compare(lab.Label(editor), lab.Label(doc.FindElement("author"))) >= 0 {
			t.Fatal("editor not before author")
		}
	}
}

func TestMoveBeforeAndAppend(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	c := doc.FindElement("c")
	a := doc.FindElement("a")
	if err := move(s, c, update.InsertSubtreeBeforeOp, a); err != nil {
		t.Fatal(err)
	}
	if doc.Root().Children()[0] != c {
		t.Fatal("c not first")
	}
	b1 := doc.FindElement("b1")
	if err := move(s, b1, update.AppendSubtreeOp, doc.FindElement("a")); err != nil {
		t.Fatal(err)
	}
	if b1.Parent() != doc.FindElement("a") {
		t.Fatal("b1 not under a")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveRejectsCyclesAndDetached(t *testing.T) {
	doc := xmltree.SampleBook()
	s, err := update.NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	publisher := doc.FindElement("publisher")
	editor := doc.FindElement("editor")
	// Moving an ancestor under its own descendant is a cycle.
	if err := move(s, publisher, update.AppendSubtreeOp, editor); !errors.Is(err, xmltree.ErrCycle) {
		t.Fatalf("cycle move: %v", err)
	}
	// Moving a node onto itself is a cycle too.
	if err := move(s, editor, update.InsertSubtreeAfterOp, editor); !errors.Is(err, xmltree.ErrCycle) {
		t.Fatalf("self move: %v", err)
	}
	if err := move(s, xmltree.NewElement("x"), update.AppendSubtreeOp, publisher); !errors.Is(err, update.ErrDetachedRef) {
		t.Fatalf("detached move: %v", err)
	}
	// The failed moves must not have corrupted anything.
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSurvivesHostileSequence is failure injection: operations
// that must error leave the session fully usable.
func TestSessionSurvivesHostileSequence(t *testing.T) {
	doc := xmltree.SampleBook()
	s, err := update.NewSession(doc, cdqs.New())
	if err != nil {
		t.Fatal(err)
	}
	title := doc.FindElement("title")
	if err := s.Delete(title); err != nil {
		t.Fatal(err)
	}
	// Inserting relative to the deleted node must fail cleanly.
	if _, err := s.InsertAfter(title, "ghost"); err == nil {
		t.Fatal("insert after deleted node accepted")
	}
	// Deleting it again must fail cleanly.
	if err := s.Delete(title); !errors.Is(err, update.ErrDetachedRef) {
		t.Fatalf("double delete: %v", err)
	}
	// The session still works.
	if _, err := s.AppendChild(doc.Root(), "appendix"); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// stormOpWithMoves mirrors the exported storm generator with moves included.
func stormOpWithMoves(rng *rand.Rand, s *update.Session, doc *xmltree.Document) error {
	var elements []*xmltree.Node
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		if n.Kind() == xmltree.KindElement {
			elements = append(elements, n)
		}
		return true
	})
	ref := elements[rng.Intn(len(elements))]
	switch rng.Intn(8) {
	case 0:
		if ref != doc.Root() {
			_, err := s.InsertBefore(ref, "nb")
			return err
		}
		return nil
	case 1:
		if ref != doc.Root() {
			_, err := s.InsertAfter(ref, "na")
			return err
		}
		return nil
	case 2:
		_, err := s.InsertFirstChild(ref, "nf")
		return err
	case 3:
		_, err := s.AppendChild(ref, "nl")
		return err
	case 4:
		if ref != doc.Root() {
			return s.Delete(ref)
		}
		return nil
	case 5:
		other := elements[rng.Intn(len(elements))]
		if ref == doc.Root() || other == ref || ref.IsAncestorOf(other) || other.Parent() == nil || ref.Parent() == nil {
			return nil
		}
		// Move may legally fail only on cycles, which we filtered.
		return move(s, ref, update.AppendSubtreeOp, other)
	case 6:
		_, err := s.Do(update.SetAttrOp(ref, "k", "v"))
		return err
	default:
		return s.SetText(ref, "t")
	}
}
