package update_test

import (
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// TestDeletionForgetsSubtreeLabels: under every registry scheme,
// deleting a subtree with attributes and nested elements (the sample's
// publisher: editor with name and address, edition with its year) leaves
// every node of it unlabelled and every survivor labelled.
func TestDeletionForgetsSubtreeLabels(t *testing.T) {
	for _, sc := range core.Registry() {
		t.Run(sc.Name, func(t *testing.T) {
			doc := xmltree.SampleBook()
			s, err := update.NewSession(doc, sc.Factory())
			if err != nil {
				t.Fatal(err)
			}
			pub := doc.FindElement("publisher")
			var gone []*xmltree.Node
			for _, n := range doc.LabelledNodes() {
				for m := n; m != nil; m = m.Parent() {
					if m == pub {
						gone = append(gone, n)
						break
					}
				}
			}
			if len(gone) != 6 {
				t.Fatalf("publisher's subtree has %d labellable nodes, want 6", len(gone))
			}
			if err := s.Delete(pub); err != nil {
				t.Fatal(err)
			}
			for _, n := range gone {
				if l := s.Labeling().Label(n); l != nil {
					t.Errorf("deleted %q still labelled %s", n.Name(), l)
				}
			}
			for _, n := range doc.LabelledNodes() {
				if s.Labeling().Label(n) == nil {
					t.Errorf("survivor %q lost its label", n.Name())
				}
			}
		})
	}
}
