package xmltree

import (
	"strings"
	"testing"
)

func TestParseSampleBook(t *testing.T) {
	doc, err := ParseString(SampleBookXML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Name() != "book" {
		t.Fatalf("root: %q", doc.Root().Name())
	}
	if got := doc.LabelledCount(); got != 10 {
		t.Fatalf("labelled count = %d, want 10", got)
	}
	title := doc.FindElement("title")
	if v, ok := title.Attr("genre"); !ok || v != "Fantasy" {
		t.Fatalf("genre attr: %q %v", v, ok)
	}
	if title.Text() != "Wayfarer" {
		t.Fatalf("title text: %q", title.Text())
	}
	// Parsed document must match the programmatic one structurally.
	built := SampleBook()
	if doc.XML() != built.XML() {
		t.Fatalf("parsed != built:\n%s\n%s", doc.XML(), built.XML())
	}
}

func TestParseRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		doc := Generate(GenOptions{Seed: seed, MaxDepth: 5, MaxChildren: 5, AttrProb: 0.4, TextProb: 0.5})
		text := doc.XML()
		re, err := ParseString(text)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if re.XML() != text {
			t.Fatalf("seed %d: round trip mismatch\n%s\n%s", seed, text, re.XML())
		}
	}
}

func TestParseEscapes(t *testing.T) {
	in := `<a b="x&amp;y&quot;z">1 &lt; 2 &amp; 3 &gt; 2</a>`
	doc, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := doc.Root().Attr("b"); v != `x&y"z` {
		t.Fatalf("attr value: %q", v)
	}
	if got := doc.Root().Text(); got != "1 < 2 & 3 > 2" {
		t.Fatalf("text: %q", got)
	}
	// Round trip preserves escaping.
	re, err := ParseString(doc.XML())
	if err != nil {
		t.Fatal(err)
	}
	if re.Root().Text() != doc.Root().Text() {
		t.Fatal("escape round trip")
	}
}

func TestParseCommentsAndPIs(t *testing.T) {
	in := `<?xml version="1.0"?><!-- top --><r><!-- inner --><?php echo ?><x/></r>`
	doc, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	kids := doc.Root().Children()
	if len(kids) != 3 {
		t.Fatalf("children: %d", len(kids))
	}
	if kids[0].Kind() != KindComment || kids[0].Value() != " inner " {
		t.Fatalf("comment: %v %q", kids[0].Kind(), kids[0].Value())
	}
	if kids[1].Kind() != KindProcInst || kids[1].Name() != "php" {
		t.Fatalf("pi: %v %q", kids[1].Kind(), kids[1].Name())
	}
	// Comments and PIs are not labelled.
	if doc.LabelledCount() != 2 {
		t.Fatalf("labelled: %d", doc.LabelledCount())
	}
}

func TestParseWhitespaceHandling(t *testing.T) {
	in := "<r>\n  <a/>\n</r>"
	doc, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Root().Children()) != 1 {
		t.Fatalf("whitespace text kept: %d children", len(doc.Root().Children()))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",               // no root
		"<a><b></a>",     // mismatched tags
		"<a></a><b></b>", // multiple roots
		"<a>",            // unexpected EOF
		"text only",      // no element
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestParseNamespaceDecls(t *testing.T) {
	in := `<r xmlns:p="urn:x"><p:a/></r>`
	doc, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Root().Attr("xmlns:p"); !ok {
		t.Fatalf("xmlns decl lost: %s", doc.XML())
	}
	// The child's name is resolved to its URI-qualified form.
	if doc.Root().Children()[0].Name() != "urn:x:a" {
		t.Fatalf("resolved name: %q", doc.Root().Children()[0].Name())
	}
}

func TestSerializeIndent(t *testing.T) {
	doc := SampleBook()
	out := doc.IndentedXML()
	if !strings.Contains(out, "\n  <title") {
		t.Fatalf("indent missing:\n%s", out)
	}
	// Indented output still parses to the same tree.
	re, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if re.XML() != doc.XML() {
		t.Fatal("indented round trip changed the tree")
	}
}

func TestSerializeEmptyElement(t *testing.T) {
	doc, _ := NewDocumentWithRoot(NewElement("lone"))
	if doc.XML() != "<lone/>" {
		t.Fatalf("empty element: %q", doc.XML())
	}
}

func TestOuterXML(t *testing.T) {
	doc := SampleBook()
	ed := doc.FindElement("editor")
	out := OuterXML(ed)
	if !strings.HasPrefix(out, "<editor>") || !strings.Contains(out, "<name>Destiny Image</name>") {
		t.Fatalf("outer xml: %s", out)
	}
}
