package update_test

import (
	"math/rand"
	"strings"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/cdbs"
	"xmldyn/internal/schemes/cdqs"
	"xmldyn/internal/schemes/comd"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/dde"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/dln"
	"xmldyn/internal/schemes/improvedbinary"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/prime"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/schemes/qrs"
	"xmldyn/internal/schemes/sector"
	"xmldyn/internal/schemes/vector"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// allSchemes lists every labeling the library ships, with the storm size
// each can afford (prime recomputes a CRT per insertion) and whether the
// scheme guarantees unique labels (LSDX/Com-D carry a documented
// uniqueness defect and are stormed but not order-verified).
type schemeCase struct {
	name      string
	factory   labeling.Factory
	ops       int
	preserves bool // guarantees unique labels / verifiable order
}

func allSchemes() []schemeCase {
	return []schemeCase{
		{"xpath-accelerator", func() labeling.Interface { return containment.NewPrePost() }, 300, true},
		{"deweyid", dewey.New, 400, true},
		{"ordpath", ordpath.New, 400, true},
		{"dln", dln.New, 400, true},
		{"improvedbinary", improvedbinary.New, 400, true},
		{"qed", qed.NewPrefix, 400, true},
		{"qed-range", func() labeling.Interface { return qed.NewRange() }, 300, true},
		{"cdbs", cdbs.New, 400, true},
		{"cdqs", cdqs.New, 400, true},
		{"vector", vector.NewPrefix, 400, true},
		{"vector-range", func() labeling.Interface { return vector.NewRange() }, 300, true},
		{"sector", sector.New, 300, true},
		{"qrs", qrs.New, 300, true},
		{"prime", func() labeling.Interface { return prime.New() }, 40, true},
		{"dde", func() labeling.Interface { return dde.New() }, 400, true},
		{"com-d", comd.New, 200, false},
	}
}

// TestStormAllSchemes drives every scheme through the same seeded mixed
// update storm (leaf/internal/subtree insertion, deletion, content
// updates) and verifies structural validity plus — for schemes with
// unique labels — document order from labels alone.
func TestStormAllSchemes(t *testing.T) {
	for _, sc := range allSchemes() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			doc := xmltree.Generate(xmltree.GenOptions{Seed: 99, MaxDepth: 3, MaxChildren: 3, AttrProb: 0.2, TextProb: 0.4})
			s, err := update.NewSession(doc, sc.factory())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < sc.ops; i++ {
				if err := randomOp(rng, s, doc); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if err := doc.Validate(); err != nil {
				t.Fatalf("tree corrupted: %v", err)
			}
			if sc.preserves {
				if err := s.Verify(); err != nil {
					t.Fatalf("order broken: %v", err)
				}
			}
			// Every labelled node must have a label.
			doc.WalkLabelled(func(n *xmltree.Node) bool {
				if s.Labeling().Label(n) == nil {
					t.Errorf("unlabelled node %q", n.Name())
					return false
				}
				return true
			})
		})
	}
}

func randomOp(rng *rand.Rand, s *update.Session, doc *xmltree.Document) error {
	elements := elementNodes(doc)
	ref := elements[rng.Intn(len(elements))]
	switch rng.Intn(10) {
	case 0, 1:
		if ref != doc.Root() {
			_, err := s.InsertBefore(ref, "nb")
			return err
		}
		_, err := s.AppendChild(ref, "na")
		return err
	case 2, 3:
		if ref != doc.Root() {
			_, err := s.InsertAfter(ref, "na")
			return err
		}
		_, err := s.AppendChild(ref, "na")
		return err
	case 4:
		_, err := s.InsertFirstChild(ref, "nf")
		return err
	case 5:
		_, err := s.AppendChild(ref, "nl")
		return err
	case 6:
		// Subtree insertion: a small element with an attribute and a
		// child.
		sub := xmltree.NewElement("sub")
		if _, err := sub.SetAttr("k", "v"); err != nil {
			return err
		}
		if err := sub.AppendChild(xmltree.NewElement("subchild")); err != nil {
			return err
		}
		return s.AppendSubtree(ref, sub)
	case 7:
		// Deletion of a non-root subtree.
		if ref != doc.Root() && ref.Parent() != nil {
			return s.Delete(ref)
		}
		return nil
	case 8:
		_, err := s.Do(update.SetAttrOp(ref, "attr", "value"))
		return err
	default:
		return s.SetText(ref, "text")
	}
}

func elementNodes(doc *xmltree.Document) []*xmltree.Node {
	var out []*xmltree.Node
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		if n.Kind() == xmltree.KindElement {
			out = append(out, n)
		}
		return true
	})
	return out
}

// TestPersistenceContract checks the published persistence grades: QED,
// CDQS, vector, ORDPATH, ImprovedBinary, DDE and prime never relabel
// under this storm; DeweyID and the global containment schemes must.
func TestPersistenceContract(t *testing.T) {
	persistent := map[string]bool{
		"ordpath": true, "improvedbinary": true, "qed": true,
		"qed-range": true, "cdbs": true, "cdqs": true, "vector": true,
		"vector-range": true, "prime": true, "dde": true,
	}
	mustRelabel := map[string]bool{
		"deweyid": true, "xpath-accelerator": true,
	}
	for _, sc := range allSchemes() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			doc := xmltree.GenerateWide(8)
			s, err := update.NewSession(doc, sc.factory())
			if err != nil {
				t.Fatal(err)
			}
			// Front insertions are the hostile case for order-shifting
			// schemes. Keep counts small for prime.
			inserts := 12
			if sc.name == "prime" {
				inserts = 6
			}
			for i := 0; i < inserts; i++ {
				if _, err := s.InsertFirstChild(doc.Root(), "f"); err != nil {
					t.Fatal(err)
				}
			}
			st := s.Labeling().Stats()
			if persistent[sc.name] && st.Relabeled != 0 {
				t.Errorf("%s relabelled %d nodes but is graded persistent", sc.name, st.Relabeled)
			}
			if mustRelabel[sc.name] && st.Relabeled == 0 {
				t.Errorf("%s never relabelled but is graded non-persistent", sc.name)
			}
		})
	}
}

func TestContentUpdatesNeverTouchLabels(t *testing.T) {
	for _, sc := range allSchemes() {
		doc := xmltree.SampleBook()
		s, err := update.NewSession(doc, sc.factory())
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		before := labeling.Snapshot(s.Labeling(), doc)
		if err := s.SetText(doc.FindElement("title"), "Homecoming"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Do(update.RenameOp(doc.FindElement("author"), "writer")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Do(update.SetAttrOp(doc.FindElement("title"), "genre", "SciFi")); err != nil {
			t.Fatal(err)
		}
		after := labeling.Snapshot(s.Labeling(), doc)
		for n, old := range before {
			if after[n] != old {
				t.Fatalf("%s: content update moved label of %s: %s -> %s", sc.name, n.Name(), old, after[n])
			}
		}
		if got := s.Counters().ContentUpdates; got != 3 {
			t.Fatalf("%s: content updates = %d, want 3", sc.name, got)
		}
	}
}

func TestSubtreeInsertLabelsAllNodes(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	sub := xmltree.NewElement("top")
	if _, err := sub.SetAttr("id", "1"); err != nil {
		t.Fatal(err)
	}
	mid := xmltree.NewElement("mid")
	if err := sub.AppendChild(mid); err != nil {
		t.Fatal(err)
	}
	if err := mid.AppendChild(xmltree.NewElement("leaf")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(update.InsertSubtreeAfterOp(doc.FindElement("b"), sub)); err != nil {
		t.Fatal(err)
	}
	if got := s.Counters().Inserts; got != 4 {
		t.Errorf("subtree inserts = %d, want 4 (element+attr+mid+leaf)", got)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	lab := s.Labeling()
	if lab.Label(mid) == nil || lab.Label(sub.Attributes()[0]) == nil {
		t.Error("subtree nodes unlabelled")
	}
}

func TestDeleteErrors(t *testing.T) {
	doc := xmltree.SampleBook()
	s, err := update.NewSession(doc, dewey.New())
	if err != nil {
		t.Fatal(err)
	}
	detached := xmltree.NewElement("x")
	if err := s.Delete(detached); err == nil {
		t.Error("deleting a detached node must fail")
	}
	if err := s.SetText(doc.FindElement("title").Attributes()[0], "x"); err == nil {
		t.Error("SetText on an attribute must fail")
	}
}

func TestDeleteChildren(t *testing.T) {
	doc := xmltree.SampleBook()
	s, err := update.NewSession(doc, dewey.New())
	if err != nil {
		t.Fatal(err)
	}
	// One transaction, one delete per child.
	pub := doc.FindElement("publisher")
	var ops []update.Op
	for _, c := range pub.Children() {
		ops = append(ops, update.DeleteOp(c))
	}
	if _, err := s.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if len(pub.Children()) != 0 {
		t.Error("children not removed")
	}
	if s.Labeling().Label(pub) == nil {
		t.Error("parent lost its label")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.XML(), "<publisher/>") {
		t.Errorf("serialisation: %s", doc.XML())
	}
}
