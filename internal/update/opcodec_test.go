package update

import (
	"bytes"
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
	path, _, err := appendRef(nil, nil, from.Node(), n, true)
	if err != nil {
		t.Fatalf("mirror path: %v", err)
	}
	m, end, err := readRef(to.Node(), path, 0, true)
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

// TestDecodedFieldsShareStrings: a decoded program's names and values are
// cut from one string of at most maxField bytes; a field longer than that,
// and every field past the first that does not fit, is a string of its
// own, and a field of a byte or none costs nothing. Every field reads back
// as it was encoded.
func TestDecodedFieldsShareStrings(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	a := doc.Root().Children()[0]
	for _, c := range []struct {
		name    string
		values  []int // a set-text op's value of each length
		strings float64
	}{
		{"one string a record", []int{40, 40, 40, 40, 1, 0}, 1},
		{"past maxField", []int{100, 100, 100, 100, 100, 100, 10, 1}, 3},
		{"a long field alone", []int{maxField + 1, 100, 100}, 2},
		{"one-byte fields", []int{1, 0, 1}, 0},
	} {
		var ops []Op
		for i, l := range c.values {
			ops = append(ops, SetTextOp(a, strings.Repeat(string(rune('a'+i)), l)))
		}
		data, err := EncodeOps(doc, ops)
		if err != nil {
			t.Fatal(err)
		}
		b := s.Batch()
		decode := func() {
			b.Reset(64)
			if err := b.AddEncoded(data); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		if got := testing.AllocsPerRun(50, decode); got != c.strings {
			t.Errorf("%s: decoding allocates %.1f, want %.0f strings", c.name, got, c.strings)
		}
		for i, op := range b.Ops() {
			if op.Value != ops[i].Value {
				t.Errorf("%s: op %d decoded value %q, want %q", c.name, i, op.Value, ops[i].Value)
			}
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

// TestDocTreeImageBytes: a node costs its head byte, the strings its
// kind carries and, for a non-empty list only, a count — and the decoder
// reads no other spelling of a node.
func TestDocTreeImageBytes(t *testing.T) {
	leaf := func(name string) *xmltree.Node { return xmltree.NewElement(name) }
	parent := func(name string, kids ...*xmltree.Node) *xmltree.Node {
		n := leaf(name)
		for _, k := range kids {
			if err := n.AppendChild(k); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	size := func(n *xmltree.Node) int { return len(appendTree(nil, n, new(nameTable))) }
	for _, c := range []struct {
		node *xmltree.Node
		want int
	}{
		{leaf("book"), 2 + 4},
		{parent("shelf", leaf("a"), leaf("bb"), xmltree.NewText("ccc")), 3 + 5 + (2 + 1) + (2 + 2) + (2 + 3)},
		{xmltree.NewAttribute("lang", "en"), 3 + 4 + 2},
		{xmltree.NewText("hello"), 2 + 5},
		{xmltree.NewText(""), 2},
		{xmltree.NewComment("note"), 2 + 4},
		{xmltree.NewProcInst("pi", "d"), 3 + 2 + 1},
	} {
		if got := size(c.node); got != c.want {
			t.Errorf("%v %q costs %d bytes, want %d", c.node.Kind(), c.node.Name()+c.node.Value(), got, c.want)
		}
	}
	withAttr := leaf("e")
	if _, err := withAttr.SetAttr("k", "v"); err != nil {
		t.Fatal(err)
	}
	if got, want := size(withAttr), 3+1+(3+1+1); got != want {
		t.Errorf("an element with one attribute costs %d bytes, want %d", got, want)
	}

	doc := xmltree.NewDocument()
	if err := doc.Node().AppendChild(parent("r", leaf("e"), xmltree.NewText("t"))); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Root().SetAttr("a", "v"); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 0x19, 2, 'r', 1, 0x02, 2, 'a', 1, 'v', 2, 0x01, 2, 'e', 0x03, 1, 't'}
	if got := EncodeDocTree(doc); !bytes.Equal(got, want) {
		t.Fatalf("<r a=\"v\"><e/>t</r> encodes as %x, want %x", got, want)
	}

	for name, img := range map[string][]byte{
		"kind 0":                 {1, 0x00, 2, 'e'},
		"kind 6":                 {1, 0x06, 2, 'p', 0},
		"kind 7":                 {1, 0x07, 2, 'p', 0},
		"bit 0x20":               {1, 0x21, 2, 'e'},
		"bit 0x40":               {1, 0x41, 2, 'e'},
		"bit 0x80":               {1, 0x81, 2, 'e'},
		"attribute with attrs":   {1, 0x09, 2, 'e', 1, 0x0A, 2, 'a', 1, 'v', 1, 0x02, 2, 'b', 1, 'w'},
		"attribute with kids":    {1, 0x09, 2, 'e', 1, 0x12, 2, 'a', 1, 'v', 1, 0x03, 1, 't'},
		"flagged empty attrs":    {1, 0x09, 2, 'e', 0},
		"flagged empty children": {1, 0x11, 2, 'e', 0},
	} {
		if _, err := DecodeDocTree(img); !errors.Is(err, ErrCodecCorrupt) {
			t.Errorf("%s: %v, want ErrCodecCorrupt", name, err)
		}
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

// TestLongVarintsRefused: a count or a length spelt longer than
// AppendLEB128 writes it (1 as 0x81 0x00) is corrupt in a tree image and
// in an op program alike, as it is in a pack and a WAL record, so what
// the decoders accept re-encodes to itself.
func TestLongVarintsRefused(t *testing.T) {
	elem := byte(xmltree.KindElement)
	short := []byte{1, elem, 2, 'a'}
	if doc, err := DecodeDocTree(short); err != nil || !bytes.Equal(EncodeDocTree(doc), short) {
		t.Fatalf("%x: %v", short, err)
	}
	for _, img := range [][]byte{{0x81, 0x00, elem, 2, 'a'}, {1, elem, 0x82, 0x00, 'a'}} {
		if _, err := DecodeDocTree(img); !errors.Is(err, ErrCodecCorrupt) {
			t.Errorf("tree image %x: %v, want ErrCodecCorrupt", img, err)
		}
	}
	live, replayed := openPair(t, "<r><a/></r>")
	prog, err := EncodeOps(live.Document(), []Op{InsertAfterOp(live.Document().Root().Children()[0], "b")})
	if err != nil {
		t.Fatal(err)
	}
	name := bytes.LastIndex(prog, []byte{2, 'b'})
	if prog[0] != 1 || name < 0 {
		t.Fatalf("program %x: no count of 1 or literal name b", prog)
	}
	for _, long := range [][]byte{
		append([]byte{0x81, 0x00}, prog[1:]...),
		append(append(bytes.Clone(prog[:name]), 0x82, 0x00), prog[name+1:]...),
	} {
		if _, err := DecodeOps(replayed.Document(), long); !errors.Is(err, ErrCodecCorrupt) {
			t.Errorf("op program %x: %v, want ErrCodecCorrupt", long, err)
		}
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
