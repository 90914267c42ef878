package uql

import (
	"errors"
	"strings"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

func session(t *testing.T) *update.Session {
	t.Helper()
	s, err := update.NewSession(xmltree.SampleBook(), qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInsertPositions(t *testing.T) {
	s := session(t)
	script := `
		insert node <isbn>12345</isbn> after //author;
		insert node <preface/> as first into /book;
		insert node <appendix/> as last into /book;
		insert node <colophon/> into /book;
		insert node <dedication/> before //title`
	res, err := Apply(s, script)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 5 || res.Statements != 5 {
		t.Fatalf("result: %+v", res)
	}
	doc := s.Document()
	kids := doc.Root().Children()
	names := make([]string, len(kids))
	for i, k := range kids {
		names[i] = k.Name()
	}
	want := "preface,dedication,title,author,isbn,publisher,appendix,colophon"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("order: %s, want %s", got, want)
	}
	if doc.FindElement("isbn").Text() != "12345" {
		t.Error("fragment content lost")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertNestedFragment(t *testing.T) {
	s := session(t)
	if _, err := Apply(s, `insert node <meta><lang code="en">English</lang></meta> into /book`); err != nil {
		t.Fatal(err)
	}
	lang := s.Document().FindElement("lang")
	if lang == nil || lang.Text() != "English" {
		t.Fatal("nested fragment missing")
	}
	if v, _ := lang.Attr("code"); v != "en" {
		t.Fatal("fragment attribute missing")
	}
	// Every node of the fragment is labelled.
	if s.Labeling().Label(lang) == nil || s.Labeling().Label(lang.Attributes()[0]) == nil {
		t.Fatal("fragment nodes unlabelled")
	}
}

func TestDeleteAllMatches(t *testing.T) {
	s := session(t)
	// Deleting every element under editor: two matches.
	res, err := Apply(s, `delete node //editor/*`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 2 {
		t.Fatalf("deleted: %d", res.Deleted)
	}
	if s.Document().FindElement("name") != nil {
		t.Fatal("name survived")
	}
	// Ancestor-then-descendant deletion is tolerated (XQUF semantics).
	s2 := session(t)
	if _, err := Apply(s2, `delete node //*[name]; delete node //name`); err == nil {
		// //name is already gone: ErrNoMatch is the expected outcome
		t.Fatal("expected no-match for already-deleted descendant")
	}
}

func TestReplaceAndRename(t *testing.T) {
	s := session(t)
	res, err := Apply(s, `
		replace value of node //title with "Homecoming";
		replace value of node //title/@genre with "SciFi";
		rename node //author as writer`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaced != 2 || res.Renamed != 1 {
		t.Fatalf("result: %+v", res)
	}
	doc := s.Document()
	if doc.FindElement("title").Text() != "Homecoming" {
		t.Error("text replace failed")
	}
	if v, _ := doc.FindElement("title").Attr("genre"); v != "SciFi" {
		t.Error("attr replace failed")
	}
	if doc.FindElement("writer") == nil {
		t.Error("rename failed")
	}
	// Content updates never relabel.
	if st := s.Labeling().Stats(); st.Relabeled != 0 {
		t.Errorf("relabelled %d", st.Relabeled)
	}
}

func TestMove(t *testing.T) {
	s := session(t)
	res, err := Apply(s, `move node //editor after //title; move node //edition into /book`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 2 {
		t.Fatalf("moved: %d", res.Moved)
	}
	doc := s.Document()
	if doc.FindElement("editor").Parent() != doc.Root() {
		t.Error("editor not moved")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentContainingKeywords(t *testing.T) {
	// Fragment text containing the word "after" must not confuse the
	// parser: the position keyword is located from the end.
	s := session(t)
	if _, err := Apply(s, `insert node <note>read after dinner</note> after //author`); err != nil {
		t.Fatal(err)
	}
	if got := s.Document().FindElement("note").Text(); got != "read after dinner" {
		t.Fatalf("note text: %q", got)
	}
}

func TestAmbiguousAndMissingPaths(t *testing.T) {
	s := session(t)
	if _, err := Apply(s, `insert node <x/> after //editor/*`); !errors.Is(err, ErrAmbiguous) {
		t.Errorf("ambiguous: %v", err)
	}
	if _, err := Apply(s, `insert node <x/> after //missing`); !errors.Is(err, ErrNoMatch) {
		t.Errorf("missing: %v", err)
	}
	if _, err := Apply(s, `delete node //missing`); !errors.Is(err, ErrNoMatch) {
		t.Errorf("delete missing: %v", err)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"",
		"frobnicate node <x/> after /book",
		"insert node after /book",
		"insert node <x/> sideways /book",
		"insert node <unclosed after /book",
		"insert node <x/> as middle into /book",
		"replace value of node //title",
		"rename node //title",
		"rename node //title as two words",
		"move node //a sideways //b",
		"move node //a //b",
		"delete node",
	}
	for _, script := range bad {
		if _, err := Parse(script); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) = %v, want ErrSyntax", script, err)
		}
	}
}

func TestScriptsAreRerunnable(t *testing.T) {
	// The fragment is cloned per run: applying the same ops twice
	// inserts two independent copies.
	s := session(t)
	ops, err := Parse(`insert node <tag/> into /book`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, ops); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, ops); err != nil {
		t.Fatal(err)
	}
	count := 0
	s.Document().WalkLabelled(func(n *xmltree.Node) bool {
		if n.Name() == "tag" {
			count++
		}
		return true
	})
	if count != 2 {
		t.Fatalf("tag copies: %d", count)
	}
}

func TestInsertAttribute(t *testing.T) {
	s := session(t)
	res, err := Apply(s, `insert attribute lang="en" into //title; insert attribute rank=3 into //author`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 {
		t.Fatalf("inserted: %d", res.Inserted)
	}
	doc := s.Document()
	if v, ok := doc.FindElement("title").Attr("lang"); !ok || v != "en" {
		t.Fatalf("lang attr: %q %v", v, ok)
	}
	if v, _ := doc.FindElement("author").Attr("rank"); v != "3" {
		t.Fatalf("rank attr: %q", v)
	}
	// The new attribute nodes carry labels.
	for _, a := range doc.FindElement("title").Attributes() {
		if a.Name() == "lang" && s.Labeling().Label(a) == nil {
			t.Fatal("attribute unlabelled")
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAttributeErrors(t *testing.T) {
	for _, script := range []string{
		`insert attribute into //title`,
		`insert attribute noequals into //title`,
		`insert attribute ="v" into //title`,
		`insert attribute a="v" sideways //title`,
		`insert attribute bad name="v" into //title`,
	} {
		if _, err := Parse(script); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) = %v, want ErrSyntax", script, err)
		}
	}
	s := session(t)
	if _, err := Apply(s, `insert attribute a="v" into //missing`); !errors.Is(err, ErrNoMatch) {
		t.Errorf("missing target: %v", err)
	}
}

// TestNestedDeleteIsOneStatement: a delete whose matches nest deletes
// the outer match, and the inner one goes with it — one statement, one
// deletion, not a failure after the first.
func TestNestedDeleteIsOneStatement(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><a/></a><b x='1'/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := update.NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Apply(s, `delete node //a`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 || res.Statements != 1 {
		t.Fatalf("result: %+v, want 1 deleted in 1 statement", res)
	}
	if got, want := doc.XML(), `<r><b x="1"/></r>`; got != want {
		t.Fatalf("document: %s, want %s", got, want)
	}
	if c := s.Counters(); c.Operations != 1 || c.Batches != 1 {
		t.Fatalf("counters: %+v, want one operation, one batch", c)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAttributeReplaceIsAnUpdate: replacing an attribute's value is a
// content update of the session — counted, undone by an abort —
// not a write beside it.
func TestAttributeReplaceIsAnUpdate(t *testing.T) {
	s := session(t)
	before := s.Counters()
	if _, err := Apply(s, `replace value of node //edition/@year with "2005"`); err != nil {
		t.Fatal(err)
	}
	after := s.Counters()
	if after.ContentUpdates != before.ContentUpdates+1 || after.Operations != before.Operations+1 {
		t.Fatalf("counters: %+v before, %+v after; want ContentUpdates and Operations up by one", before, after)
	}
	if v, _ := s.Document().FindElement("edition").Attr("year"); v != "2005" {
		t.Fatalf("year = %q", v)
	}
}

// refusing is a labelling that orders nothing beside node z, so the
// commit-time check of a transaction that closes a gap next to z fails.
type refusing struct {
	labeling.Interface
	z *xmltree.Node
}

func (l *refusing) CompareNodes(a, b *xmltree.Node) (int, bool) {
	if l.z != nil && (a == l.z || b == l.z) {
		return 0, true
	}
	return l.Interface.CompareNodes(a, b)
}

func (l *refusing) Compare(a, b labeling.Label) int {
	if l.z != nil {
		if z := l.Label(l.z).String(); a.String() == z || b.String() == z {
			return 0
		}
	}
	return l.Interface.Compare(a, b)
}

// TestFailedStatementChangesNothing: a statement is one transaction, so
// one that fails leaves the document and the counters as they were
// before it, however far it got. The checks a failed commit-time
// verification made are history, not state: Verifies and FullVerifies
// are left out of the comparison.
func TestFailedStatementChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		name, doc, script string
		want              error // nil: the commit-time order check
	}{
		// The first match detaches the second; the third match's delete
		// closes the gap before <z>, which the commit check refuses.
		{"multi-match delete", `<r><a><a/></a><x/><a/><z/></r>`, `delete node //a`, nil},
		{"move to a missing destination", `<r><a/><b/></r>`, `move node //a into //missing`, ErrNoMatch},
		{"move into itself", `<r><a><b/></a></r>`, `move node //a into //b`, xmltree.ErrCycle},
		{"move under an attribute", `<r><a/><b k='v'/></r>`, `move node //a into //b/@k`, xmltree.ErrWrongKind},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := xmltree.ParseString(tc.doc)
			if err != nil {
				t.Fatal(err)
			}
			lab := &refusing{Interface: qed.NewPrefix()}
			s, err := update.NewSession(doc, lab)
			if err != nil {
				t.Fatal(err)
			}
			lab.z = doc.FindElement("z")
			s.SetAutoVerify(true)
			if _, err := Apply(s, `insert node <y/> as first into /r`); err != nil {
				t.Fatal(err)
			}
			xml, ctr := xmltree.OuterXML(doc.Node()), s.Counters()
			res, err := Apply(s, tc.script)
			failed := errors.Is(err, tc.want)
			if tc.want == nil {
				failed = err != nil && strings.Contains(err.Error(), "document order violated")
			}
			if !failed {
				t.Fatalf("%s: %v, want %v", tc.script, err, tc.want)
			}
			if res != (Result{}) {
				t.Errorf("result of the failed statement: %+v, want none", res)
			}
			if got := xmltree.OuterXML(doc.Node()); got != xml {
				t.Errorf("document: %s, want %s", got, xml)
			}
			got := s.Counters()
			got.Verifies, got.FullVerifies = ctr.Verifies, ctr.FullVerifies
			if got != ctr {
				t.Errorf("counters: %+v, want %+v", got, ctr)
			}
		})
	}
}

// scriptPicker draws a statement's choices from the fuzzer's bytes.
type scriptPicker struct {
	data []byte
	pos  int
}

func (p *scriptPicker) pick(choices ...string) string {
	if p.pos >= len(p.data) {
		return choices[0]
	}
	p.pos++
	return choices[int(p.data[p.pos-1])%len(choices)]
}

// statement is one statement of the fuzzer's grammar: every kind, with
// paths drawn from the sample book's names, paths whose matches nest
// (//x once fragments have put an x inside an x), attributes, and a
// path that matches nothing.
func (p *scriptPicker) statement() string {
	elem := func() string {
		return p.pick("//title", "//author", "//publisher", "//editor", "//name", "//address", "//edition",
			"/book", "/book/*", "//editor/*", "//publisher//*", "//*", "//*[name]", "//x", "//x/x", "//missing")
	}
	node := func() string {
		if p.pick("element", "attribute") == "element" {
			return elem()
		}
		return p.pick("//title/@genre", "//edition/@year", "//@k", "//x/@k", "//missing/@k")
	}
	frag := func() string { return p.pick(`<x/>`, `<x k="v">t</x>`, `<x><x/><y/></x>`, `<y k="w"/>`) }
	name := func() string { return p.pick("x", "y", "k") }
	switch p.pick("insert", "attribute", "delete", "replace", "rename", "move") {
	case "insert":
		return "insert node " + frag() + " " + p.pick("before", "after", "as first into", "as last into", "into") + " " + elem()
	case "attribute":
		return "insert attribute " + name() + `="v" into ` + elem()
	case "delete":
		return "delete node " + node()
	case "replace":
		return "replace value of node " + node() + ` with "v"`
	case "rename":
		return "rename node " + node() + " as " + name()
	default:
		return "move node " + elem() + " " + p.pick("before", "after", "into") + " " + elem()
	}
}

// FuzzApplyScript runs generated statements, one at a time, on a qed
// and an ordpath session with auto-verify on. Each statement either
// fails and leaves the document and the counters exactly as they were,
// or succeeds and leaves a document the full Session.Verify passes.
func FuzzApplyScript(f *testing.F) {
	f.Add([]byte{0, 2, 4, 3, 0, 1, 0, 1, 2, 0, 13})                       // fragments in, then a delete whose matches nest
	f.Add([]byte{5, 3, 2, 4, 5, 3, 0, 15, 5, 6, 1, 0})                    // moves: into itself, to nowhere, and one that lands
	f.Add([]byte{1, 2, 1, 3, 1, 2, 4, 1, 0, 1, 2, 1, 1, 3, 0, 0})         // attributes: insert, replace, rename, delete; text
	f.Add([]byte{4, 0, 2, 0, 0, 0, 4, 13, 2, 0, 13, 2, 0, 7, 0, 0, 1, 0}) // rename, nested delete, the root deleted
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lab := range []labeling.Interface{qed.NewPrefix(), ordpath.New()} {
			doc := xmltree.SampleBook()
			s, err := update.NewSession(doc, lab)
			if err != nil {
				t.Fatal(err)
			}
			s.SetAutoVerify(true)
			p := &scriptPicker{data: data}
			for n := 0; p.pos < len(data) && n < 24; n++ {
				stmt := p.statement()
				ops, err := Parse(stmt)
				if err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
				xml, ctr := xmltree.OuterXML(doc.Node()), s.Counters()
				if _, err := Run(s, ops); err != nil {
					if got := xmltree.OuterXML(doc.Node()); got != xml {
						t.Fatalf("%s failed (%v) and changed the document:\n got %s\nwant %s", stmt, err, got, xml)
					}
					if got := s.Counters(); got != ctr {
						t.Fatalf("%s failed (%v) and changed the counters: %+v, want %+v", stmt, err, got, ctr)
					}
					continue
				}
				if err := s.Verify(); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
				if err := doc.Validate(); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
			}
		}
	})
}
