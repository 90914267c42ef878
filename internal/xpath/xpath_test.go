package xpath_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/schemes/qrs"
	"xmldyn/internal/schemes/vector"
	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

func built(t *testing.T, doc *xmltree.Document, lab labeling.Interface) labeling.Interface {
	t.Helper()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	return lab
}

func names(nodes []*xmltree.Node) string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name()
	}
	return strings.Join(out, ",")
}

func TestAxesStructuralSampleBook(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := built(t, doc, dewey.New())
	e := xpath.New(doc, lab, xpath.ModeStructural)

	editor := doc.FindElement("editor")
	cases := []struct {
		axis xpath.Axis
		want string
	}{
		{xpath.AxisSelf, "editor"},
		{xpath.AxisChild, "name,address"},
		{xpath.AxisParent, "publisher"},
		{xpath.AxisDescendant, "name,address"},
		{xpath.AxisDescendantOrSelf, "editor,name,address"},
		{xpath.AxisAncestor, "book,publisher"},
		{xpath.AxisAncestorOrSelf, "book,publisher,editor"},
		{xpath.AxisFollowing, "edition"},
		{xpath.AxisPreceding, "title,author"},
		{xpath.AxisFollowingSibling, "edition"},
		{xpath.AxisPrecedingSibling, ""},
	}
	for _, c := range cases {
		got, err := e.Select(editor, c.axis, "")
		if err != nil {
			t.Fatalf("%v: %v", c.axis, err)
		}
		if names(got) != c.want {
			t.Errorf("%v: got %q, want %q", c.axis, names(got), c.want)
		}
	}
	attrs, err := e.Select(doc.FindElement("edition"), xpath.AxisAttribute, "")
	if err != nil {
		t.Fatal(err)
	}
	if names(attrs) != "year" {
		t.Errorf("attribute axis: %q", names(attrs))
	}
}

// TestLabelOnlyMatchesStructural is the XPath-Evaluations property made
// executable: for every scheme with full label capabilities, the
// label-only engine must agree with the structural engine on every axis
// and every context node.
func TestLabelOnlyMatchesStructural(t *testing.T) {
	schemes := []labeling.Interface{
		dewey.New(), ordpath.New(), qed.NewPrefix(), vector.NewPrefix(),
	}
	axes := []xpath.Axis{
		xpath.AxisSelf, xpath.AxisChild, xpath.AxisParent,
		xpath.AxisDescendant, xpath.AxisAncestor,
		xpath.AxisFollowing, xpath.AxisPreceding,
		xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling,
		xpath.AxisAttribute,
	}
	for _, lab := range schemes {
		doc := xmltree.Generate(xmltree.GenOptions{Seed: 8, MaxDepth: 4, MaxChildren: 4, AttrProb: 0.4})
		built(t, doc, lab)
		truth := xpath.New(doc, lab, xpath.ModeStructural)
		byLabel := xpath.New(doc, lab, xpath.ModeLabelOnly)
		ctxs := doc.LabelledNodes()
		for _, ctx := range ctxs {
			if ctx.Kind() != xmltree.KindElement {
				continue
			}
			for _, ax := range axes {
				want, err := truth.Select(ctx, ax, "")
				if err != nil {
					t.Fatal(err)
				}
				got, err := byLabel.Select(ctx, ax, "")
				if err != nil {
					t.Fatalf("%s/%v: %v", lab.Name(), ax, err)
				}
				if !sameNodes(got, want) {
					t.Fatalf("%s: axis %v at %s: label-only %q != structural %q",
						lab.Name(), ax, ctx.Name(), names(got), names(want))
				}
			}
		}
	}
}

func sameNodes(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]*xmltree.Node{}, a...)
	bs := append([]*xmltree.Node{}, b...)
	key := func(n *xmltree.Node) string { return fmt.Sprintf("%p", n) }
	sort.Slice(as, func(i, j int) bool { return key(as[i]) < key(as[j]) })
	sort.Slice(bs, func(i, j int) bool { return key(bs[i]) < key(bs[j]) })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestPartialSchemesFailSiblingAxis: containment labels without sibling
// capability must answer AD axes but reject sibling axes — the Partial
// grade of Figure 7.
func TestPartialSchemesFailSiblingAxis(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := built(t, doc, qrs.New())
	e := xpath.New(doc, lab, xpath.ModeLabelOnly)
	editor := doc.FindElement("editor")

	if _, err := e.Select(editor, xpath.AxisDescendant, ""); err != nil {
		t.Fatalf("descendant should work on intervals: %v", err)
	}
	if _, err := e.Select(editor, xpath.AxisFollowingSibling, ""); !errors.Is(err, xpath.ErrUnsupported) {
		t.Fatalf("sibling axis should be unsupported, got %v", err)
	}
	// QRS stores no level, so parent-child is unsupported too.
	if _, err := e.Select(editor, xpath.AxisChild, ""); !errors.Is(err, xpath.ErrUnsupported) {
		t.Fatalf("child axis should be unsupported for QRS, got %v", err)
	}
}

func TestPrePostPlaneAxes(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := built(t, doc, containment.NewPrePost())
	e := xpath.New(doc, lab, xpath.ModeLabelOnly)
	editor := doc.FindElement("editor")
	desc, err := e.Select(editor, xpath.AxisDescendant, "")
	if err != nil {
		t.Fatal(err)
	}
	if names(desc) != "name,address" {
		t.Errorf("pre/post descendants: %q", names(desc))
	}
	// Parent works via level; sibling does not (Grust's plane lacks it).
	if _, err := e.Select(editor, xpath.AxisParent, ""); err != nil {
		t.Fatalf("parent via level: %v", err)
	}
	if _, err := e.Select(editor, xpath.AxisFollowingSibling, ""); !errors.Is(err, xpath.ErrUnsupported) {
		t.Fatalf("sibling on pre/post plane: %v", err)
	}
}

// sampleBookQueries is the Query table over xmltree.SampleBook.
var sampleBookQueries = []struct {
	path string
	want string
}{
	{"/book", "book"},
	{"/book/publisher//name", "name"},
	{"//address", "address"},
	{"/book/*", "title,author,publisher"},
	{"//edition[@year]", "edition"},
	{"//edition[@year='2004']", "edition"},
	{"//edition[@year='1999']", ""},
	{"/book/*[2]", "author"},
	{"//publisher[editor]", "publisher"},
	{"//publisher[missing]", ""},
	{"//editor/@*", ""},
	{"//title/@genre", "genre"},
	{"//@year", "year"},
}

func TestQuerySampleBook(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := built(t, doc, dewey.New())
	e := xpath.New(doc, lab, xpath.ModeStructural)
	for _, c := range sampleBookQueries {
		got, err := e.Query(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if names(got) != c.want {
			t.Errorf("%s: got %q, want %q", c.path, names(got), c.want)
		}
	}
}

func texts(nodes []*xmltree.Node) string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Text()
	}
	return strings.Join(out, ",")
}

// TestPositionalPredicatePerContext: [n] counts among the candidates of
// one parent, not along the merged result of the step.
func TestPositionalPredicatePerContext(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><s><p>1</p><p>2</p></s><s><p>3</p><p>4</p></s></r>`)
	if err != nil {
		t.Fatal(err)
	}
	e := xpath.New(doc, nil, xpath.ModeStructural)
	for _, c := range []struct{ path, want string }{
		{"/r/s/p[1]", "1,3"},
		{"//p[2]", "2,4"},
		{"//s[2]/p", "3,4"},
		{"/r/s[p][2]/p[2]", "4"},
		{"//p[3]", ""},
	} {
		got, err := e.Query(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if texts(got) != c.want {
			t.Errorf("%s: got %q, want %q", c.path, texts(got), c.want)
		}
	}
}

// TestNestedContextsUniqueAndOrdered: a step from contexts that contain
// one another reaches nodes twice (deep) or out of order (child); the
// result is still duplicate-free and in document order.
func TestNestedContextsUniqueAndOrdered(t *testing.T) {
	doc, err := xmltree.ParseString(
		`<r><s><s><p>1</p><s><p>2</p></s></s><p>3</p></s><p>4</p><s><p>5</p></s></r>`)
	if err != nil {
		t.Fatal(err)
	}
	e := xpath.New(doc, nil, xpath.ModeStructural)
	for _, c := range []struct{ path, want string }{
		{"//s//p", "1,2,3,5"},
		{"//s/p", "1,2,3,5"},
		{"//s//s/p", "1,2"},
		{"//s/s//p[1]", "1,2"},
		{"//s/*", ",1,,2,3,5"},
	} {
		got, err := e.Query(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if texts(got) != c.want {
			t.Errorf("%s: got %q, want %q", c.path, texts(got), c.want)
		}
		for i := 1; i < len(got); i++ {
			if xmltree.DocOrderCompare(got[i-1], got[i]) >= 0 {
				t.Errorf("%s: results %d and %d are not in strict document order", c.path, i-1, i)
			}
		}
	}
}

func TestQueryErrors(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := built(t, doc, dewey.New())
	e := xpath.New(doc, lab, xpath.ModeStructural)
	for _, p := range []string{"", "book", "/book[", "/book[0]", "//"} {
		if _, err := e.Query(p); err == nil {
			t.Errorf("Query(%q): expected error", p)
		}
	}
}

func TestQueryResultsInDocumentOrder(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := built(t, doc, dewey.New())
	e := xpath.New(doc, lab, xpath.ModeStructural)
	got, err := e.Query("//*")
	if err != nil {
		t.Fatal(err)
	}
	want := "book,title,author,publisher,editor,name,address,edition"
	if names(got) != want {
		t.Errorf("document order: %q, want %q", names(got), want)
	}
}
