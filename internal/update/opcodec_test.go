package update

import (
	"errors"
	"strings"
	"testing"

	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/xmltree"
)

// openPair parses the same text twice and opens a qed session on each,
// so a batch can be applied live on one and via the codec on the other.
func openPair(t *testing.T, text string) (*Session, *Session) {
	t.Helper()
	mk := func() *Session {
		doc, err := xmltree.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(doc, qed.NewPrefix())
		if err != nil {
			t.Fatal(err)
		}
		s.SetAutoVerify(true)
		return s
	}
	return mk(), mk()
}

// mirror resolves the node at the same structural path in another doc.
func mirror(t *testing.T, from *xmltree.Document, n *xmltree.Node, to *xmltree.Document) *xmltree.Node {
	t.Helper()
	path, _, err := appendRef(nil, nil, from, n)
	if err != nil {
		t.Fatalf("mirror path: %v", err)
	}
	m, end, err := readRef(to, path, 0)
	if err != nil || end != len(path) {
		t.Fatalf("mirror resolve: node %v, read %d of %d bytes, err %v", m, end, len(path), err)
	}
	return m
}

func TestOpsCodecRoundTripAllKinds(t *testing.T) {
	const text = `<lib genre="all"><book id="b1"><title>One</title></book><book id="b2"/><junk/></lib>`
	live, replayed := openPair(t, text)

	root := live.Document().Root()
	b1 := root.Children()[0]
	b2 := root.Children()[1]
	junk := root.Children()[2]
	sub := xmltree.NewElement("appendix")
	_, _ = sub.SetAttr("n", "1")
	_ = sub.AppendChild(xmltree.NewText("notes "))
	_ = sub.AppendChild(xmltree.NewComment("kept"))

	ops := []Op{
		InsertBeforeOp(b1, "preface"),
		InsertAfterOp(b2, "epilogue"),
		InsertFirstChildOp(b1, "isbn"),
		AppendChildOp(b2, "year"),
		AppendSubtreeOp(root, sub),
		DeleteOp(junk),
		SetTextOp(b1.Children()[0], "One, revised"),
		RenameOp(b2, "journal"),
		SetAttrOp(root, "genre", "fiction"),
		SetAttrOp(b1, "lang", "en"),
	}

	data, err := EncodeOps(live.Document(), ops)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeOps(replayed.Document(), data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, err := live.Apply(ops); err != nil {
		t.Fatalf("live apply: %v", err)
	}
	if _, err := replayed.Apply(decoded); err != nil {
		t.Fatalf("replayed apply: %v", err)
	}
	if got, want := replayed.Document().XML(), live.Document().XML(); got != want {
		t.Fatalf("replayed tree diverged:\n got %s\nwant %s", got, want)
	}
}

// A batched move (delete + re-graft of the same node) must encode as a
// back-reference and replay as a move, not as a copy of stale content.
func TestOpsCodecMoveBackref(t *testing.T) {
	const text = `<r><a><x keep="1">v</x></a><b/></r>`
	live, replayed := openPair(t, text)

	x := live.Document().Root().Children()[0].Children()[0]
	dest := live.Document().Root().Children()[1]
	ops := []Op{
		DeleteOp(x),
		AppendSubtreeOp(dest, x),
	}
	data, err := EncodeOps(live.Document(), ops)
	if err != nil {
		t.Fatalf("encode move: %v", err)
	}
	decoded, err := DecodeOps(replayed.Document(), data)
	if err != nil {
		t.Fatalf("decode move: %v", err)
	}
	if decoded[1].Subtree != decoded[0].Ref {
		t.Fatal("backref did not resolve to the delete target")
	}
	if _, err := live.Apply(ops); err != nil {
		t.Fatalf("live apply: %v", err)
	}
	if _, err := replayed.Apply(decoded); err != nil {
		t.Fatalf("replayed apply: %v", err)
	}
	if got, want := replayed.Document().XML(), live.Document().XML(); got != want {
		t.Fatalf("moved tree diverged:\n got %s\nwant %s", got, want)
	}
}

// The index of delete targets is built at the first move of a batch: it
// must see the deletes before that point and the ones after it, and a
// batch whose grafts are all detached subtrees never needs it.
func TestOpsCodecBackrefAcrossBatch(t *testing.T) {
	live, replayed := openPair(t, `<r><a/><b/><c/><d/><dest/></r>`)
	kids := live.Document().Root().Children()
	a, b, c, d, dest := kids[0], kids[1], kids[2], kids[3], kids[4]
	ops := []Op{
		DeleteOp(a),
		AppendSubtreeOp(dest, xmltree.NewElement("fresh")), // inline: no lookup
		DeleteOp(b),
		AppendSubtreeOp(dest, b), // first move: deletes 0 and 2 indexed here
		DeleteOp(c),              // indexed as it passes
		AppendSubtreeOp(dest, c),
		AppendSubtreeOp(dest, a),
	}
	data, err := EncodeOps(live.Document(), ops)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeOps(replayed.Document(), data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for graft, del := range map[int]int{3: 2, 5: 4, 6: 0} {
		if decoded[graft].Subtree != decoded[del].Ref {
			t.Errorf("op %d does not re-graft the target of delete op %d", graft, del)
		}
	}
	if decoded[1].Subtree == nil || decoded[1].Subtree.Parent() != nil || decoded[1].Subtree.Name() != "fresh" {
		t.Errorf("op 1 is not an inline subtree: %v", decoded[1].Subtree)
	}
	// d is attached and no op deleted it.
	if _, err := EncodeOps(live.Document(), append(ops, AppendSubtreeOp(dest, d))); !errors.Is(err, ErrNotLogged) {
		t.Errorf("graft of an attached, undeleted subtree: %v, want ErrNotLogged", err)
	}
	if _, err := live.Apply(ops); err != nil {
		t.Fatalf("live apply: %v", err)
	}
	if _, err := replayed.Apply(decoded); err != nil {
		t.Fatalf("replayed apply: %v", err)
	}
	if got, want := replayed.Document().XML(), live.Document().XML(); got != want {
		t.Fatalf("replayed tree diverged:\n got %s\nwant %s", got, want)
	}
}

// EncodeOps allocates its output buffer and nothing per op: the path
// scratch lives on the stack at any depth a document reaches in
// practice, varints are appended in place, and a batch without a move
// builds no delete index.
func TestEncodeOpsAllocs(t *testing.T) {
	for _, depth := range []int{2, 12} {
		text := strings.Repeat("<e>", depth) + "<leaf/><leaf/>" + strings.Repeat("</e>", depth)
		doc, err := xmltree.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		parent := doc.Root()
		for parent.Children()[0].Name() == "e" {
			parent = parent.Children()[0]
		}
		leaf := parent.Children()[1]
		if got := leaf.Depth(); got != depth {
			t.Fatalf("leaf depth = %d, want %d", got, depth)
		}
		var ops []Op
		for i := 0; i < 4; i++ {
			ops = append(ops, InsertBeforeOp(leaf, "before"), InsertAfterOp(leaf, "after"),
				InsertFirstChildOp(leaf, "first"), AppendChildOp(parent, "last"))
		}
		var data []byte
		allocs := testing.AllocsPerRun(50, func() { data, err = EncodeOps(doc, ops) })
		if err != nil {
			t.Fatal(err)
		}
		if allocs > 2 {
			t.Errorf("depth %d: EncodeOps of %d inserts allocates %.0f times, want at most 2", depth, len(ops), allocs)
		}
		if decoded, err := DecodeOps(doc, data); err != nil || len(decoded) != len(ops) || decoded[0].Ref != leaf {
			t.Errorf("depth %d: decode: %d ops, %v", depth, len(decoded), err)
		}
	}
}

// Whitespace-only text nodes must survive the binary tree codec — an
// XML text round-trip would drop them.
func TestDocTreeCodecPreservesWhitespaceAndPIs(t *testing.T) {
	doc := xmltree.NewDocument()
	_ = doc.Node().AppendChild(xmltree.NewComment("header"))
	root := xmltree.NewElement("r")
	_ = doc.Node().AppendChild(root)
	_ = doc.Node().AppendChild(xmltree.NewProcInst("style", "x=1"))
	_, _ = root.SetAttr("a", "line1\nline2")
	_ = root.AppendChild(xmltree.NewText("  "))
	_ = root.AppendChild(xmltree.NewElement("e"))
	_ = root.AppendChild(xmltree.NewText("tail"))

	out, err := DecodeDocTree(EncodeDocTree(doc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.NodeCount() != doc.NodeCount() {
		t.Fatalf("node count %d, want %d", out.NodeCount(), doc.NodeCount())
	}
	kids := out.Root().Children()
	if len(kids) != 3 || kids[0].Value() != "  " || kids[2].Value() != "tail" {
		t.Fatalf("whitespace text not preserved: %v", kids)
	}
	if v, ok := out.Root().Attr("a"); !ok || v != "line1\nline2" {
		t.Fatalf("attr value not preserved: %q", v)
	}
	if out.Node().Children()[2].Kind() != xmltree.KindProcInst {
		t.Fatal("document-level PI not preserved")
	}
}

func TestEncodeOpsRejectsUnloggable(t *testing.T) {
	live, _ := openPair(t, "<r><a/></r>")
	detached := xmltree.NewElement("ghost")
	if _, err := EncodeOps(live.Document(), []Op{DeleteOp(detached)}); !errors.Is(err, ErrNotLogged) {
		t.Fatalf("detached ref: %v, want ErrNotLogged", err)
	}
	attached := live.Document().Root().Children()[0]
	if _, err := EncodeOps(live.Document(), []Op{AppendSubtreeOp(live.Document().Root(), attached)}); !errors.Is(err, ErrNotLogged) {
		t.Fatalf("attached subtree without delete: %v, want ErrNotLogged", err)
	}
}

func TestDecodeOpsRejectsCorruption(t *testing.T) {
	live, replayed := openPair(t, "<r><a/></r>")
	a := live.Document().Root().Children()[0]
	data, err := EncodeOps(live.Document(), []Op{InsertAfterOp(a, "b")})
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix must error, never panic or misread.
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeOps(replayed.Document(), data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	// A path into a node the tree does not have must not resolve.
	deep, err := EncodeOps(live.Document(), []Op{InsertAfterOp(a, "b")})
	if err != nil {
		t.Fatal(err)
	}
	empty, _ := xmltree.ParseString("<r/>")
	if _, err := DecodeOps(empty, deep); !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("dangling path: %v, want ErrUnresolvable", err)
	}
}

// mirror is exercised here to pin the path codec itself: every node of
// a non-trivial tree must round-trip through appendRef/readRef.
func TestStructuralPathsRoundTripEveryNode(t *testing.T) {
	live, replayed := openPair(t, `<r a="1" b="2"><x><y z="3">t</y><!--c--></x><w/></r>`)
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		m := mirror(t, live.Document(), n, replayed.Document())
		if m.Kind() != n.Kind() || m.Name() != n.Name() || m.Value() != n.Value() {
			t.Fatalf("path mismatch: %v %q vs %v %q", n.Kind(), n.Name(), m.Kind(), m.Name())
		}
		for _, a := range n.Attributes() {
			walk(a)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(live.Document().Node())
}
