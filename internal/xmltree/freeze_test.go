package xmltree

import (
	"errors"
	"testing"
)

// Freeze marks the subtree rooted at n — the node, its attributes and
// all descendants — frozen, as publication marks the nodes it makes.
func (n *Node) Freeze() {
	n.frozen = true
	for _, c := range n.links {
		c.Freeze()
	}
}

// frozenDoc parses a small document and freezes it.
func frozenDoc(t *testing.T) *Document {
	t.Helper()
	doc, err := ParseString(`<a x="1"><b>text</b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.node.Freeze()
	return doc
}

func TestFreezeMarksWholeSubtree(t *testing.T) {
	doc := frozenDoc(t)
	if !doc.node.Frozen() {
		t.Fatal("document not frozen")
	}
	var walked int
	var walk func(n *Node)
	walk = func(n *Node) {
		walked++
		if !n.Frozen() {
			t.Errorf("node %q (%v) not frozen", n.Name(), n.Kind())
		}
		for _, a := range n.Attributes() {
			walk(a)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(doc.Node())
	if walked < 5 {
		t.Fatalf("walked only %d nodes", walked)
	}
}

func TestFrozenErrorMutatorsReturnErrFrozen(t *testing.T) {
	doc := frozenDoc(t)
	root := doc.Root()
	b := root.FirstChild()
	if _, err := root.SetAttr("y", "2"); !errors.Is(err, ErrFrozen) {
		t.Errorf("SetAttr: %v", err)
	}
	if err := root.AppendAttr(NewAttribute("y", "2")); !errors.Is(err, ErrFrozen) {
		t.Errorf("AppendAttr: %v", err)
	}
	if err := root.InsertAttrAt(0, NewAttribute("y", "2")); !errors.Is(err, ErrFrozen) {
		t.Errorf("InsertAttrAt: %v", err)
	}
	if err := root.AppendChild(NewElement("d")); !errors.Is(err, ErrFrozen) {
		t.Errorf("AppendChild: %v", err)
	}
	if err := root.PrependChild(NewElement("d")); !errors.Is(err, ErrFrozen) {
		t.Errorf("PrependChild: %v", err)
	}
	if err := InsertBefore(b, NewElement("d")); !errors.Is(err, ErrFrozen) {
		t.Errorf("InsertBefore: %v", err)
	}
	if err := InsertAfter(b, NewElement("d")); !errors.Is(err, ErrFrozen) {
		t.Errorf("InsertAfter: %v", err)
	}
	// A frozen subtree must not be graftable into a live tree either:
	// attaching would rewrite its parent pointer.
	live := NewElement("live")
	if err := live.AppendChild(b); !errors.Is(err, ErrFrozen) {
		t.Errorf("graft frozen child into live tree: %v", err)
	}
	// SetRoot is error-returning, so it must return ErrFrozen (not
	// panic via the old root's Detach) — and must check before
	// detaching anything.
	if err := doc.SetRoot(NewElement("z")); !errors.Is(err, ErrFrozen) {
		t.Errorf("SetRoot on frozen document: %v", err)
	}
	if doc.Root() == nil || doc.Root().Name() != "a" {
		t.Error("SetRoot on frozen document disturbed the tree")
	}
	liveDoc := NewDocument()
	if err := liveDoc.SetRoot(doc.Root()); !errors.Is(err, ErrFrozen) {
		t.Errorf("SetRoot with a frozen root into a live document: %v", err)
	}
}

func TestFrozenVoidMutatorsPanic(t *testing.T) {
	doc := frozenDoc(t)
	root := doc.Root()
	cases := map[string]func(){
		"SetName":  func() { root.SetName("z") },
		"SetValue": func() { root.FirstChild().FirstChild().SetValue("z") },
		"Detach":   func() { root.FirstChild().Detach() },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on frozen node did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFrozenCloneIsMutable(t *testing.T) {
	doc := frozenDoc(t)
	c := doc.Root().Clone()
	if c.Frozen() {
		t.Fatal("clone of a frozen node is frozen")
	}
	if err := c.AppendChild(NewElement("d")); err != nil {
		t.Fatalf("mutating the clone: %v", err)
	}
	c.SetName("renamed")
	if doc.Root().Name() == "renamed" {
		t.Fatal("clone mutation leaked into the frozen original")
	}
	// Document-level clone too.
	dc := doc.Clone()
	if dc.node.Frozen() {
		t.Fatal("clone of a frozen document is frozen")
	}
	if err := dc.Root().AppendChild(NewElement("d")); err != nil {
		t.Fatalf("mutating the document clone: %v", err)
	}
}

func TestFrozenReadsStillWork(t *testing.T) {
	doc := frozenDoc(t)
	root := doc.Root()
	if got, _ := root.Attr("x"); got != "1" {
		t.Fatalf("Attr = %q", got)
	}
	if root.FirstChild().Text() != "text" {
		t.Fatalf("Text = %q", root.FirstChild().Text())
	}
	if err := doc.Validate(); err != nil {
		t.Fatalf("Validate on frozen doc: %v", err)
	}
	if doc.XML() == "" {
		t.Fatal("XML serialisation of frozen doc is empty")
	}
}
