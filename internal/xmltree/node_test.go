package xmltree

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestNewNodes(t *testing.T) {
	e := NewElement("book")
	if e.Kind() != KindElement || e.Name() != "book" {
		t.Fatalf("element: got %v %q", e.Kind(), e.Name())
	}
	a := NewAttribute("genre", "Fantasy")
	if a.Kind() != KindAttribute || a.Value() != "Fantasy" {
		t.Fatalf("attribute: got %v %q", a.Kind(), a.Value())
	}
	tx := NewText("hi")
	if tx.Kind() != KindText || tx.Value() != "hi" {
		t.Fatalf("text: got %v %q", tx.Kind(), tx.Value())
	}
	c := NewComment("note")
	if c.Kind() != KindComment {
		t.Fatalf("comment kind: %v", c.Kind())
	}
	pi := NewProcInst("xslt", "href=x")
	if pi.Kind() != KindProcInst || pi.Name() != "xslt" {
		t.Fatalf("pi: %v %q", pi.Kind(), pi.Name())
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindDocument:  "document",
		KindElement:   "element",
		KindAttribute: "attribute",
		KindText:      "text",
		KindComment:   "comment",
		KindProcInst:  "processing-instruction",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string: %q", got)
	}
}

func TestAppendAndNavigate(t *testing.T) {
	root := NewElement("r")
	a := NewElement("a")
	b := NewElement("b")
	if err := root.AppendChild(a); err != nil {
		t.Fatal(err)
	}
	if err := root.AppendChild(b); err != nil {
		t.Fatal(err)
	}
	if root.FirstChild() != a || root.LastChild() != b {
		t.Fatal("first/last child wrong")
	}
	if a.NextSibling() != b || b.PrevSibling() != a {
		t.Fatal("sibling navigation wrong")
	}
	if a.PrevSibling() != nil || b.NextSibling() != nil {
		t.Fatal("end siblings should be nil")
	}
	if a.Index() != 0 || b.Index() != 1 {
		t.Fatalf("indices: %d %d", a.Index(), b.Index())
	}
	if a.Parent() != root {
		t.Fatal("parent wrong")
	}
}

func TestInsertBeforeAfter(t *testing.T) {
	root := NewElement("r")
	b := NewElement("b")
	_ = root.AppendChild(b)
	a := NewElement("a")
	if err := InsertBefore(b, a); err != nil {
		t.Fatal(err)
	}
	c := NewElement("c")
	if err := InsertAfter(b, c); err != nil {
		t.Fatal(err)
	}
	names := childNames(root)
	if names != "a,b,c" {
		t.Fatalf("order: %s", names)
	}
	// Insert before a detached node fails.
	if err := InsertBefore(NewElement("x"), NewElement("y")); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("want ErrNotAttached, got %v", err)
	}
}

func TestInsertChildAtBounds(t *testing.T) {
	root := NewElement("r")
	if err := root.InsertChildAt(1, NewElement("x")); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("want ErrIndexOutOfRange, got %v", err)
	}
	if err := root.InsertChildAt(-1, NewElement("x")); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("want ErrIndexOutOfRange, got %v", err)
	}
	if err := root.InsertChildAt(0, NewElement("x")); err != nil {
		t.Fatal(err)
	}
}

func TestMoveReattaches(t *testing.T) {
	r1 := NewElement("r1")
	r2 := NewElement("r2")
	c := NewElement("c")
	_ = r1.AppendChild(c)
	if err := r2.AppendChild(c); err != nil {
		t.Fatal(err)
	}
	if len(r1.Children()) != 0 {
		t.Fatal("child not detached from old parent")
	}
	if c.Parent() != r2 {
		t.Fatal("child not attached to new parent")
	}
}

func TestCycleRejected(t *testing.T) {
	a := NewElement("a")
	b := NewElement("b")
	_ = a.AppendChild(b)
	if err := b.AppendChild(a); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	if err := a.AppendChild(a); !errors.Is(err, ErrCycle) {
		t.Fatalf("self append: want ErrCycle, got %v", err)
	}
}

func TestKindRules(t *testing.T) {
	text := NewText("t")
	if err := text.AppendChild(NewElement("x")); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("text cannot contain children: %v", err)
	}
	el := NewElement("e")
	if err := el.AppendChild(NewAttribute("a", "v")); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("attribute as regular child: %v", err)
	}
	doc := NewDocument()
	if err := doc.Node().AppendChild(NewText("t")); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("document cannot contain text: %v", err)
	}
	if _, err := text.SetAttr("a", "v"); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("attributes on text: %v", err)
	}
}

func TestAttributes(t *testing.T) {
	e := NewElement("e")
	if _, err := e.SetAttr("a", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetAttr("b", "2"); err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Attr("a"); !ok || v != "1" {
		t.Fatalf("attr a: %q %v", v, ok)
	}
	// Setting an existing attribute replaces its value in place.
	if _, err := e.SetAttr("a", "9"); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Attr("a"); v != "9" {
		t.Fatalf("replaced attr: %q", v)
	}
	if len(e.Attributes()) != 2 {
		t.Fatalf("attr count: %d", len(e.Attributes()))
	}
	if !e.RemoveAttr("a") {
		t.Fatal("RemoveAttr existing")
	}
	if e.RemoveAttr("zz") {
		t.Fatal("RemoveAttr missing should be false")
	}
	if _, ok := e.Attr("a"); ok {
		t.Fatal("attr a should be gone")
	}
}

func TestAppendAttrNode(t *testing.T) {
	e := NewElement("e")
	a := NewAttribute("k", "v")
	if err := e.AppendAttr(a); err != nil {
		t.Fatal(err)
	}
	if a.Parent() != e {
		t.Fatal("attr parent")
	}
	if err := e.AppendAttr(NewElement("x")); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("append element as attr: %v", err)
	}
	// moving an attribute re-attaches it
	e2 := NewElement("e2")
	if err := e2.AppendAttr(a); err != nil {
		t.Fatal(err)
	}
	if len(e.Attributes()) != 0 || a.Parent() != e2 {
		t.Fatal("attribute move failed")
	}
}

func TestDetach(t *testing.T) {
	r := NewElement("r")
	c := NewElement("c")
	_ = r.AppendChild(c)
	c.Detach()
	if c.Parent() != nil || len(r.Children()) != 0 {
		t.Fatal("detach failed")
	}
	c.Detach() // no-op
	a := NewAttribute("x", "1")
	_ = r.AppendAttr(a)
	a.Detach()
	if len(r.Attributes()) != 0 {
		t.Fatal("attribute detach failed")
	}
}

func TestDepthAndAncestry(t *testing.T) {
	doc := SampleBook()
	book := doc.Root()
	name := doc.FindElement("name")
	if name == nil {
		t.Fatal("name not found")
	}
	if book.Depth() != 0 {
		t.Fatalf("root depth: %d", book.Depth())
	}
	if name.Depth() != 3 {
		t.Fatalf("name depth: %d", name.Depth())
	}
	if !book.IsAncestorOf(name) {
		t.Fatal("book should be ancestor of name")
	}
	if name.IsAncestorOf(book) {
		t.Fatal("name is not an ancestor of book")
	}
	if book.IsAncestorOf(book) {
		t.Fatal("ancestor is proper")
	}
	if name.Root() != doc.Node() {
		t.Fatal("Root should reach the document node")
	}
}

func TestTextHelpers(t *testing.T) {
	doc := SampleBook()
	title := doc.FindElement("title")
	if title.Text() != "Wayfarer" {
		t.Fatalf("title text: %q", title.Text())
	}
	editor := doc.FindElement("editor")
	if editor.Text() != "" {
		t.Fatalf("editor has no direct text: %q", editor.Text())
	}
	if got := editor.DeepText(); got != "Destiny ImageUSA" {
		t.Fatalf("editor deep text: %q", got)
	}
	attr := doc.FindElement("title").Attributes()[0]
	if attr.Text() != "Fantasy" {
		t.Fatalf("attr text: %q", attr.Text())
	}
}

func TestClone(t *testing.T) {
	doc := SampleBook()
	c := doc.Clone()
	if c.XML() != doc.XML() {
		t.Fatal("clone not equal")
	}
	// Mutating the clone leaves the original untouched.
	c.FindElement("title").SetName("headline")
	if doc.FindElement("headline") != nil {
		t.Fatal("clone mutation leaked")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneEach: a list of subtrees, a nil among them, is replaced in
// place by detached, thawed, valid copies that read as their Clones do —
// the deep one included, whose descendants outrun the slab.
func TestCloneEach(t *testing.T) {
	doc := SampleBook()
	doc.Freeze()
	title := doc.FindElement("title")
	orig := []*Node{title.Attributes()[0], nil, doc.Root(), title}
	list := slices.Clone(orig)
	CloneEach(list)
	for i, n := range orig {
		c := list[i]
		if n == nil {
			if c != nil {
				t.Fatalf("entry %d: nil became %v", i, c)
			}
			continue
		}
		if c == n || c.Parent() != nil || c.Frozen() {
			t.Fatalf("entry %d: copy of %q is the original (%v), attached (%v) or frozen (%v)", i, n.Name(), c == n, c.Parent(), c.Frozen())
		}
		if got, want := OuterXML(c), OuterXML(n.Clone()); got != want {
			t.Fatalf("entry %d reads %s, Clone %s", i, got, want)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		CloneEach(append(list[:0], orig[0], orig[0], orig[0], orig[0]))
	}); allocs != 1 {
		t.Fatalf("four childless nodes cloned in %.0f allocations, want the one slab", allocs)
	}
}

func TestValidate(t *testing.T) {
	doc := SampleBook()
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a parent pointer and expect Validate to notice.
	title := doc.FindElement("title")
	title.parent = doc.FindElement("author")
	if err := doc.Validate(); err == nil {
		t.Fatal("expected validation error for corrupt parent pointer")
	}
}

func TestSetRootReplaces(t *testing.T) {
	doc := NewDocument()
	if err := doc.SetRoot(NewElement("a")); err != nil {
		t.Fatal(err)
	}
	if err := doc.SetRoot(NewElement("b")); err != nil {
		t.Fatal(err)
	}
	if doc.Root().Name() != "b" {
		t.Fatalf("root: %q", doc.Root().Name())
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := doc.SetRoot(NewText("t")); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("text root: %v", err)
	}
}

func TestCounts(t *testing.T) {
	doc := SampleBook()
	if got := doc.LabelledCount(); got != 10 {
		t.Fatalf("labelled count = %d, want 10", got)
	}
	// 10 labellable + 5 text nodes.
	if got := doc.NodeCount(); got != 15 {
		t.Fatalf("node count = %d, want 15", got)
	}
	if got := doc.MaxDepth(); got != 3 { // name/address/year depth
		t.Fatalf("max depth = %d, want 3", got)
	}
}

func childNames(n *Node) string {
	var names []string
	for _, c := range n.Children() {
		names = append(names, c.Name())
	}
	return strings.Join(names, ",")
}

// TestSlabWindowsAreExact: the lists of a slab-built tree are neighbours
// in one array. Appending to a full one must move it; with a two-index
// window the append would land in the next node's list.
func TestSlabWindowsAreExact(t *testing.T) {
	slab := NewSlab(7, 6)
	root := slab.New(KindElement, "r", "")
	slab.Reserve(root, false, 2)
	var parents [2]*Node
	for i := range parents {
		p := slab.New(KindElement, fmt.Sprint("p", i), "")
		slab.Reserve(p, true, 1)
		slab.Reserve(p, false, 1)
		if err := p.AppendAttr(slab.New(KindAttribute, "a", "v")); err != nil {
			t.Fatal(err)
		}
		if err := p.AppendChild(slab.New(KindElement, fmt.Sprint("c", i), "")); err != nil {
			t.Fatal(err)
		}
		if err := root.AppendChild(p); err != nil {
			t.Fatal(err)
		}
		parents[i] = p
	}
	if len(slab.nodes) != 0 || len(slab.links) != 0 {
		t.Fatalf("slab left with %d nodes and %d links", len(slab.nodes), len(slab.links))
	}
	const before = `<r><p0 a="v"><c0/></p0><p1 a="v"><c1/></p1></r>`
	if got := OuterXML(root); got != before {
		t.Fatalf("built %s", got)
	}
	// Every list is full: grow each of them, at the front, at the back.
	for _, n := range []*Node{root, parents[0], parents[1]} {
		if cap(n.kids) != len(n.kids) || cap(n.attrs) != len(n.attrs) {
			t.Fatalf("%s: lists of %d/%d entries have room for %d/%d", n.Name(), len(n.attrs), len(n.kids), cap(n.attrs), cap(n.kids))
		}
		if err := n.PrependChild(NewElement("first")); err != nil {
			t.Fatal(err)
		}
		if err := n.AppendChild(NewElement("last")); err != nil {
			t.Fatal(err)
		}
		if _, err := n.SetAttr("z", "9"); err != nil {
			t.Fatal(err)
		}
	}
	const after = `<r z="9"><first/><p0 a="v" z="9"><first/><c0/><last/></p0><p1 a="v" z="9"><first/><c1/><last/></p1><last/></r>`
	if got := OuterXML(root); got != after {
		t.Errorf("after growing every list:\n got %s\nwant %s", got, after)
	}
	if err := root.Validate(); err != nil {
		t.Error(err)
	}
	// An exhausted slab, like the zero one, hands out heap nodes and lists.
	var none Slab
	for _, s := range []*Slab{&slab, &none} {
		n := s.New(KindElement, "late", "")
		s.Reserve(n, true, 2)
		s.Reserve(n, false, 3)
		if cap(n.attrs) != 2 || cap(n.kids) != 3 || len(n.attrs)+len(n.kids) != 0 {
			t.Errorf("heap fallback: room for %d/%d", cap(n.attrs), cap(n.kids))
		}
	}
}

// TestCloneAllocatesPerNodeAndList: a copy is its nodes and one exact
// list per non-empty list — no growth by doubling.
func TestCloneAllocatesPerNodeAndList(t *testing.T) {
	doc := Generate(GenOptions{Seed: 5, MaxDepth: 5, MaxChildren: 7, AttrProb: 0.6, TextProb: 0.5, TargetNodes: 300})
	want := 0
	var count func(n *Node)
	count = func(n *Node) {
		want++
		if len(n.attrs) > 0 {
			want++
		}
		if len(n.kids) > 0 {
			want++
		}
		for _, a := range n.attrs {
			count(a)
		}
		for _, k := range n.kids {
			count(k)
		}
	}
	count(doc.Root())
	var c *Node
	if got := testing.AllocsPerRun(10, func() { c = doc.Root().Clone() }); int(got) != want {
		t.Errorf("Clone of %d nodes: %v allocations, want %d", doc.NodeCount(), got, want)
	}
	if OuterXML(c) != OuterXML(doc.Root()) {
		t.Error("the copy differs")
	}
}
