package xmltree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseNeverPanics: arbitrary bytes either parse or error — the
// parser must not panic on garbage.
func TestParseNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ParseString(string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParseMutatedDocuments: single-byte mutations of a valid document
// either parse to a valid tree or error cleanly.
func TestParseMutatedDocuments(t *testing.T) {
	base := SampleBook().XML()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 400; i++ {
		data := []byte(base)
		pos := rng.Intn(len(data))
		data[pos] = byte(rng.Intn(128))
		doc, err := ParseString(string(data))
		if err != nil {
			continue
		}
		if err := doc.Validate(); err != nil {
			t.Fatalf("mutation at %d parsed into an invalid tree: %v", pos, err)
		}
		// Whatever parsed must serialise and re-parse to itself.
		re, err := ParseString(doc.XML())
		if err != nil {
			t.Fatalf("mutation at %d: reserialised form does not parse: %v\n%s", pos, err, doc.XML())
		}
		if re.XML() != doc.XML() {
			t.Fatalf("mutation at %d: unstable serialisation", pos)
		}
	}
}

// TestDeepNesting: very deep documents parse and serialise without
// stack trouble at realistic depths.
func TestDeepNesting(t *testing.T) {
	depth := 2000
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<d>")
	}
	sb.WriteString("x")
	for i := 0; i < depth; i++ {
		sb.WriteString("</d>")
	}
	doc, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if maxDepth(doc) != depth-1 {
		t.Fatalf("depth: %d", maxDepth(doc))
	}
	if _, err := ParseString(doc.XML()); err != nil {
		t.Fatal(err)
	}
}

// TestHugeAttributeCount: wide attribute lists stay ordered.
func TestHugeAttributeCount(t *testing.T) {
	e := NewElement("e")
	for i := 0; i < 500; i++ {
		if _, err := e.SetAttr(attrName(i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.Attributes()) != 500 {
		t.Fatalf("attrs: %d", len(e.Attributes()))
	}
	doc, _ := NewDocumentWithRoot(e)
	re, err := ParseString(doc.XML())
	if err != nil {
		t.Fatal(err)
	}
	attrs := re.Root().Attributes()
	for i, a := range attrs {
		if a.Name() != attrName(i) {
			t.Fatalf("attr %d order: %s", i, a.Name())
		}
	}
}

// TestRandomOpsPreservePinnedVersions is the structure-sharing property
// test: random batches of structural and content mutations against a
// document with pinned published versions must leave every old version
// byte-identical (serialise + compare) while the live document
// advances, and each new version must serialise exactly like the live
// document at its publication point.
func TestRandomOpsPreservePinnedVersions(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			doc := SampleBook()
			seq := uint64(1)
			type pinned struct {
				seq  uint64
				view *Document
				xml  string
			}
			var pins []pinned
			pin := func() {
				v := OpenVersion(doc.PublishVersion(seq))
				pins = append(pins, pinned{seq: seq, view: v, xml: doc.XML()})
				if got := v.XML(); got != doc.XML() {
					t.Fatalf("seq %d: fresh version differs from live document", seq)
				}
				seq++
			}
			pin()
			for round := 0; round < 30; round++ {
				for op := 0; op < 1+rng.Intn(6); op++ {
					randomMutation(t, rng, doc)
				}
				if err := doc.Validate(); err != nil {
					t.Fatalf("round %d: live tree invalid: %v", round, err)
				}
				pin()
				checkIndices(t, doc.Node())
				checkIndices(t, pins[len(pins)-1].view.Node())
				for _, p := range pins {
					if got := p.view.XML(); got != p.xml {
						t.Fatalf("round %d: pinned version %d changed:\n got %s\nwant %s",
							round, p.seq, got, p.xml)
					}
				}
			}
		})
	}
}

// checkIndices fails unless every attribute and child under n reports
// its position in Attributes() or Children() as its Index().
func checkIndices(t *testing.T, n *Node) {
	t.Helper()
	for i, a := range n.Attributes() {
		if a.Index() != i {
			t.Fatalf("attribute %s of <%s> is at %d, Index says %d", a.Name(), n.Name(), i, a.Index())
		}
	}
	for i, c := range n.Children() {
		if c.Index() != i {
			t.Fatalf("child %s of <%s> is at %d, Index says %d", c.Name(), n.Name(), i, c.Index())
		}
		checkIndices(t, c)
	}
}

// randomMutation applies one random structural or content mutation to
// a random element of the live document.
func randomMutation(t *testing.T, rng *rand.Rand, doc *Document) {
	t.Helper()
	var elems []*Node
	doc.WalkLabelled(func(n *Node) bool {
		if n.Kind() == KindElement {
			elems = append(elems, n)
		}
		return true
	})
	if len(elems) == 0 {
		return
	}
	n := elems[rng.Intn(len(elems))]
	switch rng.Intn(9) {
	case 0:
		if err := n.AppendChild(NewElement(fmt.Sprintf("e%d", rng.Intn(100)))); err != nil {
			t.Fatal(err)
		}
	case 1:
		if err := n.PrependChild(NewText(fmt.Sprintf("t%d", rng.Intn(100)))); err != nil {
			t.Fatal(err)
		}
	case 2:
		if _, err := n.SetAttr(attrName(rng.Intn(20)), fmt.Sprint(rng.Intn(100))); err != nil {
			t.Fatal(err)
		}
	case 3:
		n.SetName(fmt.Sprintf("r%d", rng.Intn(100)))
	case 4:
		if attrs := n.Attributes(); len(attrs) > 0 {
			attrs[rng.Intn(len(attrs))].Detach()
		}
	case 5:
		// Delete a non-root subtree.
		if n != doc.Root() && n.Parent() != nil {
			n.Detach()
		}
	case 6:
		// Move a non-root subtree under another element that is not
		// one of its own descendants.
		if n == doc.Root() || n.Parent() == nil {
			return
		}
		dst := elems[rng.Intn(len(elems))]
		if dst == n || n.IsAncestorOf(dst) {
			return
		}
		if err := dst.AppendChild(n); err != nil {
			t.Fatal(err)
		}
	case 7:
		// Insert an attribute at a random place, clamped at both ends, or
		// move one of n's own there: half the time, and whenever the new
		// one's name is taken.
		attrs := n.Attributes()
		a := NewAttribute(attrName(rng.Intn(20)), "i")
		if _, taken := n.Attr(a.Name()); taken || len(attrs) > 0 && rng.Intn(2) == 0 {
			a = attrs[rng.Intn(len(attrs))]
		}
		if err := n.InsertAttrAt(rng.Intn(len(attrs)+3)-1, a); err != nil {
			t.Fatal(err)
		}
	case 8:
		// Insert a child anywhere among the others, the middle included.
		i := rng.Intn(len(n.Children()) + 1)
		if err := n.InsertChildAt(i, NewElement(fmt.Sprintf("m%d", rng.Intn(100)))); err != nil {
			t.Fatal(err)
		}
	}
}

func attrName(i int) string {
	letters := "abcdefghij"
	var sb strings.Builder
	sb.WriteByte('a')
	for x := i; x > 0; x /= 10 {
		sb.WriteByte(letters[x%10])
	}
	return sb.String()
}
