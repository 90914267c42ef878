package xmldyn

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"xmldyn/internal/repo"
	"xmldyn/internal/store"
)

func TestQuickstartFlow(t *testing.T) {
	doc, err := ParseString("<a><b/><c/></a>")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(doc, "qed")
	if err != nil {
		t.Fatal(err)
	}
	b := doc.FindElement("b")
	n, err := s.InsertAfter(b, "new")
	if err != nil {
		t.Fatal(err)
	}
	lb := s.Labeling().Label(b)
	ln := s.Labeling().Label(n)
	lc := s.Labeling().Label(doc.FindElement("c"))
	if s.Labeling().Compare(lb, ln) >= 0 || s.Labeling().Compare(ln, lc) >= 0 {
		t.Fatalf("inserted label %s not between %s and %s", ln, lb, lc)
	}
	if err := VerifyOrder(s); err != nil {
		t.Fatal(err)
	}
}

func TestSchemesRegistry(t *testing.T) {
	names := Schemes()
	if len(names) < 16 {
		t.Fatalf("schemes: %v", names)
	}
	for _, want := range []string{"qed", "cdqs", "deweyid", "ordpath", "vector", "prime", "dde", "xpath-accelerator"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scheme %s missing from %v", want, names)
		}
	}
	if _, err := Open(SampleBook(), "nope"); err == nil {
		t.Error("Open with unknown scheme accepted")
	}
}

func TestEveryRegisteredSchemeOpensAndUpdates(t *testing.T) {
	for _, name := range Schemes() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := Open(SampleBook(), name)
			if err != nil {
				t.Fatal(err)
			}
			pub := s.Document().FindElement("publisher")
			if _, err := s.InsertAfter(pub, "isbn"); err != nil {
				t.Fatal(err)
			}
			if MeanLabelBits(s) <= 0 {
				t.Error("no label bits")
			}
		})
	}
}

func TestEncodeAndReconstruct(t *testing.T) {
	s, err := Open(SampleBook(), "deweyid")
	if err != nil {
		t.Fatal(err)
	}
	rows := Encode(s).Table()
	if len(rows) != 10 {
		t.Fatalf("rows: %d", len(rows))
	}
	re, err := Reconstruct(rows)
	if err != nil {
		t.Fatal(err)
	}
	if re.XML() != SampleBook().XML() {
		t.Fatal("reconstruction mismatch")
	}
}

func TestQueryFacade(t *testing.T) {
	s, err := Open(SampleBook(), "ordpath")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Query(s, "/book/publisher//name")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name() != "name" {
		t.Fatalf("query result: %v", got)
	}
}

// TestQueryAnswerOutlivesCommit: Query reads through the session's
// element index, whose lists a commit edits in place, so its answer is
// a copy. An answer taken before commits that insert and delete
// elements of the name it read holds the same nodes after them, on a
// scheme whose labels are unique and on one whose labels can tie.
func TestQueryAnswerOutlivesCommit(t *testing.T) {
	for _, scheme := range []string{"qed", "lsdx"} {
		doc, err := ParseString("<a><b/><c><b/></c><b/></a>")
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(doc, scheme)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Query(s, "//b")
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(got)
		if err := s.Delete(got[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertBefore(got[1], "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertAfter(got[2], "b"); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: the answer taken before the commits changed under them", scheme)
		}
		if after, _ := Query(s, "//b"); len(after) != 4 || after[1] != want[1] || after[2] != want[2] {
			t.Fatalf("%s: after the commits //b reads %d nodes, want the 4 in document order", scheme, len(after))
		}
	}
}

func TestLabelQueryCapabilities(t *testing.T) {
	full, err := Open(SampleBook(), "qed")
	if err != nil {
		t.Fatal(err)
	}
	eng := LabelQuery(full)
	editor := full.Document().FindElement("editor")
	if _, err := eng.Select(editor, AxisFollowingSibling, ""); err != nil {
		t.Fatalf("qed sibling axis: %v", err)
	}
	partial, err := Open(SampleBook(), "qrs")
	if err != nil {
		t.Fatal(err)
	}
	eng = LabelQuery(partial)
	editor = partial.Document().FindElement("editor")
	if _, err := eng.Select(editor, AxisFollowingSibling, ""); !errors.Is(err, ErrAxisUnsupported) {
		t.Fatalf("qrs sibling axis: %v", err)
	}
}

// TestLabelQueryPathsMatchQuery: a label-only engine's path queries
// read the tree, as the session's own engine does, so on every scheme
// they answer what Query answers: a deep step, a child step, a
// predicate, and merges of nested contexts.
func TestLabelQueryPathsMatchQuery(t *testing.T) {
	paths := []string{"/book/publisher//name", "/book/*", "//edition[@year='2004']", "//*//*", "//*/*"}
	for _, scheme := range Schemes() {
		s, err := Open(SampleBook(), scheme)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			want, err := Query(s, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := LabelQuery(s).Query(p)
			if err != nil {
				t.Fatalf("%s %s: %v", scheme, p, err)
			}
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("%s %s: label-only engine %d nodes, Query %d", scheme, p, len(got), len(want))
			}
		}
	}
}

func TestMatrixFacade(t *testing.T) {
	pub := PublishedMatrix()
	if len(pub) != 12 {
		t.Fatalf("published rows: %d", len(pub))
	}
}

func TestSaveRestore(t *testing.T) {
	s, err := Open(SampleBook(), "cdqs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertAfter(s.Document().FindElement("author"), "series"); err != nil {
		t.Fatal(err)
	}
	data, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if re.Document().XML() != s.Document().XML() {
		t.Fatal("restore mismatch")
	}
	if re.Labeling().Name() != "cdqs" {
		t.Fatalf("restored scheme: %s", re.Labeling().Name())
	}
	// The restored session is live.
	if _, err := re.AppendChild(re.Document().Root(), "more"); err != nil {
		t.Fatal(err)
	}
	if err := VerifyOrder(re); err != nil {
		t.Fatal(err)
	}
	// Corruption is detected.
	data[len(data)/2] ^= 0x10
	if _, err := Restore(data); err == nil {
		t.Fatal("corrupted snapshot restored")
	}
}

// TestSaveRestoreFidelity: a session's and a repository's snapshot give
// back the exact document — mixed text where it stood, comments and
// processing instructions kept — under every scheme family's headline.
func TestSaveRestoreFidelity(t *testing.T) {
	for _, src := range []string{`<a>x<b/>y<!--c--><?p q?></a>`, SampleBook().XML()} {
		for _, scheme := range []string{"qed", "deweyid", "cdqs"} {
			doc, err := ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(doc, scheme)
			if err != nil {
				t.Fatal(err)
			}
			data, err := Save(s)
			if err != nil {
				t.Fatal(err)
			}
			re, err := Restore(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := re.Document().XML(); got != src {
				t.Errorf("%s: Restore(Save) gave %s, want %s", scheme, got, src)
			}

			r := NewRepository()
			if err := r.Open("d", doc.Clone(), scheme); err != nil { // s holds doc
				t.Fatal(err)
			}
			blob, err := SaveRepository(r)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := RestoreRepository(blob)
			if err != nil {
				t.Fatal(err)
			}
			var got string
			if err := r2.View("d", func(s *Session) error { got = s.Document().XML(); return nil }); err != nil {
				t.Fatal(err)
			}
			if got != src {
				t.Errorf("%s: RestoreRepository(SaveRepository) gave %s, want %s", scheme, got, src)
			}
		}
	}
}

// The row-table formats this library no longer reads, written by it
// before: a version-1 session snapshot of <a x="1"><b>t</b></a> under
// qed, and a version-2 repository container holding it as "a" under
// deweyid. Both carry valid checksums.
const (
	v1SnapshotFixture  = "XDYN\x01\x03qed\x03\x01\x012\x00\x01a\x00\x02\x042.12\x012\x01x\x011\x01\x032.2\x012\x01b\x01t\xc7\xde\xfc\xc7\xec\xd6\xc3\xa1h"
	v2ContainerFixture = "XDYN\x02\x01\x01a\x07deweyid\x03\x01\x011\x00\x01a\x00\x02\x031.1\x011\x01x\x011\x01\x031.2\x011\x01b\x01t\x8c\xb8\xce\x87\x86\xd9\xda\x9c\xde\x01"
)

// TestRestoreRefusesOtherFormats: old row-table bytes fail with the
// store's version error rather than decoding as something else. Session
// and repository images are one format — a pack whose every record is
// its own — so each reader refuses the other's image by its contents: a
// session image holds exactly one document, a repository's documents
// have names.
// TestOpenRefusesHeldDocument: a document has one labelling. A second
// Open of it, plain or by a repository, fails with ErrDocumentHeld and
// leaves the first session's labels whole; a clone opens.
func TestOpenRefusesHeldDocument(t *testing.T) {
	doc := SampleBook()
	s, err := Open(doc, "qed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(doc, "deweyid"); !errors.Is(err, ErrDocumentHeld) {
		t.Fatalf("a second Open: %v, want ErrDocumentHeld", err)
	}
	if err := NewRepository().Open("book", doc, "qed"); !errors.Is(err, ErrDocumentHeld) {
		t.Fatalf("a repository's Open: %v, want ErrDocumentHeld", err)
	}
	if _, err := Open(doc.Clone(), "deweyid"); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRefusesOtherFormats(t *testing.T) {
	s, err := Open(SampleBook(), "qed")
	if err != nil {
		t.Fatal(err)
	}
	session, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRepository()
	for _, name := range []string{"book", "copy"} {
		if err := r.Open(name, SampleBook(), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	repository, err := SaveRepository(r)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v1": []byte(v1SnapshotFixture), "v2": []byte(v2ContainerFixture)} {
		if _, err := Restore(data); !errors.Is(err, store.ErrBadVersion) {
			t.Errorf("Restore(%s): %v, want ErrBadVersion", name, err)
		}
		if _, err := RestoreRepository(data); !errors.Is(err, store.ErrBadVersion) {
			t.Errorf("RestoreRepository(%s): %v, want ErrBadVersion", name, err)
		}
	}
	if _, err := Restore(repository); !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("Restore(two-document repository image): %v, want ErrCorrupt", err)
	}
	if _, err := RestoreRepository(session); !errors.Is(err, repo.ErrEmptyName) {
		t.Errorf("RestoreRepository(session image): %v, want ErrEmptyName", err)
	}
}

func TestMoveFacade(t *testing.T) {
	s, err := Open(SampleBook(), "qed")
	if err != nil {
		t.Fatal(err)
	}
	doc := s.Document()
	edition := doc.FindElement("edition")
	if _, err := s.Apply([]Op{DeleteOp(edition), InsertSubtreeAfterOp(doc.FindElement("title"), edition)}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyOrder(s); err != nil {
		t.Fatal(err)
	}
	if got := doc.Root().Children()[1].Name(); got != "edition" {
		t.Fatalf("second child: %s", got)
	}
}

func TestSubtreeBuildersExported(t *testing.T) {
	doc, _ := ParseString("<r><x/></r>")
	s, err := Open(doc, "vector")
	if err != nil {
		t.Fatal(err)
	}
	sub := NewElement("chapter")
	if err := sub.AppendChild(NewText("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubtree(doc.Root(), sub); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.XML(), "<chapter>hello</chapter>") {
		t.Fatalf("xml: %s", doc.XML())
	}
}
