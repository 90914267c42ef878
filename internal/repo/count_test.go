package repo

import (
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// writer is the write surface both repository flavours share.
type writer interface {
	Open(name string, doc *xmltree.Document, scheme string) error
	Batch(name string, build func(*xmltree.Document, *update.Batch) error) (int, error)
	MultiBatch(names []string, build func(map[string]*MultiDoc) error) (int, error)
}

// countDoc is the document every count case starts from.
const countDoc = `<r><a>one</a><b x="1"><c/></b><d/></r>`

// countCases queue ops against a tree: mixed, each kind that creates
// no element on its own, and a transaction that fails at its second
// delete of one node. inserts is how many elements a document's part
// inserts.
var countCases = []struct {
	name    string
	build   func(doc *xmltree.Document, b *update.Batch)
	inserts int
	fails   bool
}{
	{"mixed", func(doc *xmltree.Document, b *update.Batch) {
		kids := doc.Root().Children()
		b.AppendChild(doc.Root(), "n1").
			InsertBefore(kids[0], "n2").
			InsertFirstChild(kids[1], "n3").
			Add(update.AppendSubtreeOp(kids[2], graftTree())).
			Delete(kids[1].Children()[0]).
			SetText(kids[0], "two").
			SetAttr(kids[2], "y", "2").
			Rename(kids[2], "e").
			InsertAfter(kids[2], "n4")
	}, 4, false},
	{"grafts", func(doc *xmltree.Document, b *update.Batch) {
		b.Add(update.AppendSubtreeOp(doc.Root(), graftTree())).
			Add(update.InsertSubtreeBeforeOp(doc.Root().Children()[0], graftTree()))
	}, 0, false},
	{"deletes", func(doc *xmltree.Document, b *update.Batch) {
		kids := doc.Root().Children()
		b.Delete(kids[0]).Delete(kids[2])
	}, 0, false},
	{"set-text", func(doc *xmltree.Document, b *update.Batch) {
		kids := doc.Root().Children()
		b.SetText(kids[0], "").SetText(kids[2], "new")
	}, 0, false},
	{"failed", func(doc *xmltree.Document, b *update.Batch) {
		d := doc.Root().Children()[2]
		b.AppendChild(doc.Root(), "n").Delete(d).Delete(d)
	}, 0, true},
}

// graftTree is a detached two-element subtree with text.
func graftTree() *xmltree.Node {
	g, c := xmltree.NewElement("g"), xmltree.NewElement("h")
	if err := c.AppendChild(xmltree.NewText("t")); err != nil {
		panic(err)
	}
	if err := g.AppendChild(c); err != nil {
		panic(err)
	}
	return g
}

// appliedCount runs build's ops through a bare session's Apply on a
// fresh countDoc and returns the non-nil entries of its result.
func appliedCount(t *testing.T, build func(*xmltree.Document, *update.Batch)) int {
	t.Helper()
	s, err := newSchemeSession(mustParse(t, countDoc), "qed")
	if err != nil {
		t.Fatal(err)
	}
	b := s.Batch()
	build(s.Document(), b)
	res, err := s.Apply(b.Ops())
	if err != nil {
		t.Fatalf("the bare session refuses the ops: %v", err)
	}
	n := 0
	for _, created := range res.New {
		if created != nil {
			n++
		}
	}
	return n
}

// TestCommitReturnsInsertedCount: Batch and MultiBatch, in memory and
// logged, return the number of elements the transaction inserted —
// exactly the created nodes a bare session's Apply reports for the same
// ops, summed over a MultiBatch's documents — and 0 with the error of a
// transaction that fails.
func TestCommitReturnsInsertedCount(t *testing.T) {
	flavours := map[string]func(t *testing.T) writer{
		"Repository": func(*testing.T) writer { return New() },
		"DurableRepository": func(t *testing.T) writer {
			d, err := OpenDurable(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		},
	}
	for flavour, open := range flavours {
		for _, tc := range countCases {
			t.Run(flavour+"/"+tc.name, func(t *testing.T) {
				want := tc.inserts
				if !tc.fails {
					if applied := appliedCount(t, tc.build); applied != want {
						t.Fatalf("Apply created %d elements, want %d", applied, want)
					}
				}
				w := open(t)
				for _, name := range []string{"one", "left", "right"} {
					if err := w.Open(name, mustParse(t, countDoc), "qed"); err != nil {
						t.Fatal(err)
					}
				}
				got, err := w.Batch("one", func(doc *xmltree.Document, b *update.Batch) error {
					tc.build(doc, b)
					return nil
				})
				if tc.fails != (err != nil) || got != want {
					t.Errorf("Batch returned %d, %v; want %d, failing %v", got, err, want, tc.fails)
				}
				got, err = w.MultiBatch([]string{"right", "left"}, func(m map[string]*MultiDoc) error {
					for _, md := range m {
						tc.build(md.Document(), md.Batch())
					}
					return nil
				})
				if tc.fails != (err != nil) || got != 2*want {
					t.Errorf("MultiBatch returned %d, %v; want %d, failing %v", got, err, 2*want, tc.fails)
				}
			})
		}
	}
}
