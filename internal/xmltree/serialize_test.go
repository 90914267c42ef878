package xmltree

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// referenceWrite is the serialiser as it was while it formatted every
// tag through fmt: the oracle the piece-by-piece writer is pinned to.
func referenceWrite(w io.Writer, n *Node, indent string, depth int) error {
	ind, nl := "", ""
	if indent != "" {
		ind, nl = strings.Repeat(indent, depth), "\n"
	}
	switch n.Kind() {
	case KindText:
		_, err := io.WriteString(w, textEscaper.Replace(n.Value()))
		return err
	case KindComment:
		_, err := fmt.Fprintf(w, "%s<!--%s-->", ind, n.Value())
		return err
	case KindProcInst:
		_, err := fmt.Fprintf(w, "%s<?%s %s?>", ind, n.Name(), n.Value())
		return err
	case KindAttribute:
		_, err := fmt.Fprintf(w, ` %s="%s"`, n.Name(), attrEscaper.Replace(n.Value()))
		return err
	case KindElement:
		fmt.Fprintf(w, "%s<%s", ind, n.Name())
		for _, a := range n.Attributes() {
			if err := referenceWrite(w, a, indent, depth); err != nil {
				return err
			}
		}
		if len(n.Children()) == 0 {
			_, err := io.WriteString(w, "/>")
			return err
		}
		io.WriteString(w, ">")
		inline := indent == "" || textOnly(n)
		for _, c := range n.Children() {
			var err error
			if inline {
				err = referenceWrite(w, c, "", 0)
			} else {
				io.WriteString(w, nl)
				err = referenceWrite(w, c, indent, depth+1)
			}
			if err != nil {
				return err
			}
		}
		if !inline {
			fmt.Fprintf(w, "%s%s", nl, ind)
		}
		_, err := fmt.Fprintf(w, "</%s>", n.Name())
		return err
	default:
		return fmt.Errorf("xmltree: cannot serialise %v node", n.Kind())
	}
}

func referenceXML(d *Document, indent string) string {
	var sb strings.Builder
	for _, c := range d.Node().Children() {
		referenceWrite(&sb, c, indent, 0)
		if indent != "" {
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// serializeFixture has every kind at the top level and nested, values
// that need each escape, a text-only element, mixed content, an empty
// element and nesting deeper than a few indents.
func serializeFixture(t testing.TB) *Document {
	doc := NewDocument()
	el := func(name string, kids ...*Node) *Node {
		e := NewElement(name)
		for _, k := range kids {
			var err error
			if k.Kind() == KindAttribute {
				err = e.AppendAttr(k)
			} else {
				err = e.AppendChild(k)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	deep := el("d5", NewText("deep & down"))
	for i := 4; i > 0; i-- {
		deep = el(fmt.Sprintf("d%d", i), NewAttribute("lvl", fmt.Sprint(i)), deep, NewComment(" after <d> "))
	}
	root := el("lib",
		NewAttribute("q", "a\"b<c>&d\n\te"),
		NewAttribute("plain", "v"),
		el("title", NewAttribute("lang", "en"), NewText(`T & <U> "q"`)),
		el("mixed", NewText("before "), el("b", NewText("bold")), NewText(" after > all")),
		el("empty"),
		NewProcInst("render", `mode="fast" & loose`),
		NewComment(" inner -- comment "),
		deep,
		NewText("tail\ttext"),
	)
	for _, top := range []*Node{NewComment(" top <c> & "), NewProcInst("xml-stylesheet", `href="a.xsl"`), root, NewComment("end")} {
		if err := doc.Node().AppendChild(top); err != nil {
			t.Fatal(err)
		}
	}
	return doc
}

// TestSerializeBytesPinned: with indent off and on, the writer's output
// is the formatting serialiser's, byte for byte — on the fixture, the
// sample documents and generated ones, live and through a version view.
func TestSerializeBytesPinned(t *testing.T) {
	docs := map[string]*Document{"fixture": serializeFixture(t), "book": SampleBook()}
	for seed := int64(0); seed < 6; seed++ {
		docs[fmt.Sprint("generated-", seed)] = Generate(GenOptions{Seed: seed, MaxDepth: 6, MaxChildren: 5, AttrProb: 0.5, TextProb: 0.6})
	}
	for name, doc := range docs {
		view := OpenVersion(doc.PublishVersion(1))
		for _, indent := range []string{"", "  ", "\t"} {
			want := referenceXML(doc, indent)
			for what, d := range map[string]*Document{"live": doc, "view": view} {
				var sb strings.Builder
				if err := d.WriteXML(&sb, SerializeOptions{Indent: indent}); err != nil {
					t.Fatal(err)
				}
				if got := sb.String(); got != want {
					t.Errorf("%s (%s), indent %q:\n got %q\nwant %q", name, what, indent, got, want)
				}
			}
		}
		if got, want := doc.XML(), referenceXML(doc, ""); got != want {
			t.Errorf("%s: XML() = %q, want %q", name, got, want)
		}
		if got, want := doc.IndentedXML(), referenceXML(doc, "  "); got != want {
			t.Errorf("%s: IndentedXML() = %q, want %q", name, got, want)
		}
		if root := doc.Root(); root != nil {
			var sb strings.Builder
			referenceWrite(&sb, root, "", 0)
			if got := OuterXML(root); got != sb.String() {
				t.Errorf("%s: OuterXML = %q, want %q", name, got, sb.String())
			}
		}
	}
}

// TestSerializeAllocatesNothingPerNode: into a builder that has the
// room, serialising allocates nothing with indent off, and with it on
// only the indentation string, which grows once per level of depth —
// not a boxed string per tag and attribute.
func TestSerializeAllocatesNothingPerNode(t *testing.T) {
	for name, doc := range map[string]*Document{
		"fixture":   serializeFixture(t),
		"generated": Generate(GenOptions{Seed: 3, MaxDepth: 6, MaxChildren: 6, TargetNodes: 2000, AttrProb: 0.5, TextProb: 0.5}),
	} {
		for _, indent := range []string{"", "  "} {
			var sb strings.Builder
			sb.Grow(2 * len(referenceXML(doc, indent)))
			room := sb.Cap()
			allocs := testing.AllocsPerRun(10, func() {
				sb.Reset()
				sb.Grow(room)
				if err := doc.WriteXML(&sb, SerializeOptions{Indent: indent}); err != nil {
					t.Fatal(err)
				}
			})
			// Reset drops the buffer: the Grow is the one allocation that
			// is the builder's, the levels of indentation are the rest.
			limit := 1.0
			if indent != "" {
				limit += float64(maxDepth(doc) + 1)
			}
			if allocs > limit {
				t.Errorf("%s (%d nodes), indent %q: %v allocations, want at most %v", name, doc.NodeCount(), indent, allocs, limit)
			}
		}
	}
}

type failingWriter struct{ room int }

var errFull = errors.New("full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.room -= len(p); w.room < 0 {
		return 0, errFull
	}
	return len(p), nil
}

// TestSerializeReportsFirstWriteError: wherever the writer gives out,
// WriteXML returns its error.
func TestSerializeReportsFirstWriteError(t *testing.T) {
	doc := serializeFixture(t)
	full := len(doc.IndentedXML())
	for room := 0; room < full; room += 7 {
		if err := doc.WriteXML(&failingWriter{room: room}, SerializeOptions{Indent: "  "}); !errors.Is(err, errFull) {
			t.Fatalf("room for %d of %d bytes: err = %v", room, full, err)
		}
	}
	if err := doc.WriteXML(&failingWriter{room: full}, SerializeOptions{Indent: "  "}); err != nil {
		t.Fatal(err)
	}
	if err := nestedDocumentNode().WriteXML(io.Discard, SerializeOptions{}); err == nil {
		t.Error("a document node below the root serialised")
	}
}

// nestedDocumentNode returns a tree no mutator builds: a document node as
// an element's child, which the serialiser must refuse.
func nestedDocumentNode() *Document {
	doc := NewDocument()
	root := NewElement("r")
	root.links = []*Node{{kind: KindDocument, parent: root}}
	root.parent = doc.node
	doc.node.links = []*Node{root}
	return doc
}
