package repo

import (
	"errors"
	"fmt"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

func testRepo(t *testing.T) *Repository {
	t.Helper()
	r := New()
	for i, scheme := range []string{"qed", "deweyid", "ordpath", "vector", "cdqs"} {
		name := fmt.Sprintf("doc-%d", i)
		doc := workload.BaseDocument(int64(i), 60)
		if err := r.Open(name, doc, scheme); err != nil {
			t.Fatalf("open %s under %s: %v", name, scheme, err)
		}
	}
	return r
}

// appendTo is a build that appends an element named child under the
// document's root.
func appendTo(child string) func(*xmltree.Document, *update.Batch) error {
	return func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), child)
		return nil
	}
}

// counters reads the named document's session counters under its read
// lock.
func counters(t testing.TB, r *Repository, name string) update.Counters {
	t.Helper()
	var c update.Counters
	if err := r.View(name, func(s *update.Session) error { c = s.Counters(); return nil }); err != nil {
		t.Fatal(err)
	}
	return c
}

// mustDoc returns the slot serving name.
func mustDoc(t testing.TB, r *Repository, name string) *Doc {
	t.Helper()
	d, ok := lookup(r, name)
	if !ok {
		t.Fatalf("no document %q", name)
	}
	return d
}

func TestOpenGetDrop(t *testing.T) {
	r := testRepo(t)
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	want := []string{"doc-0", "doc-1", "doc-2", "doc-3", "doc-4"}
	names := r.Names()
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	if scheme, ok := r.Scheme("doc-2"); !ok || scheme != "ordpath" {
		t.Fatalf("Scheme doc-2 = %q %v", scheme, ok)
	}
	if _, ok := r.Scheme("missing"); ok {
		t.Fatal("Scheme missing succeeded")
	}
	if !r.Drop("doc-2") || r.Drop("doc-2") {
		t.Fatal("Drop semantics broken")
	}
	if r.Len() != 4 {
		t.Fatalf("Len after drop = %d", r.Len())
	}
}

// TestOpenErrors: Open refuses an empty name, a duplicate and a scheme
// the registry does not name, and every by-name method refuses a
// missing document.
func TestOpenErrors(t *testing.T) {
	r := New()
	doc := xmltree.ExampleTree()
	if err := r.Open("", doc, "qed"); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("empty name: %v", err)
	}
	if err := r.Open("d", doc, "no-such-scheme"); !errors.Is(err, ErrNoScheme) {
		t.Fatalf("bad scheme: %v", err)
	}
	if err := r.Open("d", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	if err := r.Open("d", xmltree.ExampleTree(), "qed"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := r.View("missing", func(*update.Session) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("view missing: %v", err)
	}
	if _, err := r.Batch("missing", appendTo("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("batch missing: %v", err)
	}
	if _, err := r.Query("missing", "//a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("query missing: %v", err)
	}
	if err := r.Verify("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("verify missing: %v", err)
	}
}

// TestOpenSessionSchemeContract: a labelling's variant self-name such
// as vector.NewRange's "vector-range" is not a registry scheme and is
// refused at registration (its Save image could never Load), while a
// registry-named document registers and keeps its scheme through
// save/load.
func TestOpenSessionSchemeContract(t *testing.T) {
	r := New()
	if err := r.Open("v", xmltree.ExampleTree(), "vector-range"); !errors.Is(err, ErrNoScheme) {
		t.Fatalf("variant labeling: %v, want ErrNoScheme", err)
	}
	if err := r.Open("q", xmltree.ExampleTree(), "qed"); err != nil {
		t.Fatal(err)
	}
	if scheme, ok := r.Scheme("q"); !ok || scheme != "qed" {
		t.Fatalf("scheme = %q %v", scheme, ok)
	}
	data, err := r.Save()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(data)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if scheme, ok := back.Scheme("q"); !ok || scheme != "qed" {
		t.Fatalf("loaded scheme = %q %v", scheme, ok)
	}
}

// TestOpenAdmitsUniqueLabelSchemes: on either repository flavour, Open
// takes every registry scheme Figure 7 grades as keeping labels unique
// and refuses the others (lsdx, com-d) with ErrNoScheme before
// labelling, so the refused document opens under another scheme.
func TestOpenAdmitsUniqueLabelSchemes(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for flavour, open := range map[string]func(string, *xmltree.Document, string) error{"memory": New().Open, "durable": d.Open} {
		var refused []string
		for _, s := range core.Registry() {
			doc := xmltree.ExampleTree()
			err := open(s.Name, doc, s.Name)
			if s.UniqueLabels {
				if err != nil {
					t.Errorf("%s: %s: %v", flavour, s.Name, err)
				}
				continue
			}
			refused = append(refused, s.Name)
			if !errors.Is(err, ErrNoScheme) {
				t.Errorf("%s: %s: %v, want ErrNoScheme", flavour, s.Name, err)
			}
			if err := open(s.Name, doc, "qed"); err != nil {
				t.Errorf("%s: the document %s refused: %v", flavour, s.Name, err)
			}
		}
		if fmt.Sprint(refused) != "[lsdx com-d]" {
			t.Errorf("%s: refused %v, want [lsdx com-d]", flavour, refused)
		}
	}
}

func TestUpdateAndQuery(t *testing.T) {
	r := New()
	doc, err := xmltree.ParseString(`<lib><book/><book/></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Open("lib", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Batch("lib", appendTo("book")); err != nil {
		t.Fatal(err)
	}
	nodes, err := r.Query("lib", "//book")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("query found %d books, want 3", len(nodes))
	}
}

// TestBatchThroughRepo: a repository batch verifies once however many
// ops it carries, and so does the next one.
func TestBatchThroughRepo(t *testing.T) {
	r := New()
	doc, err := xmltree.ParseString(`<r><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Open("d", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	const k = 16
	inserted, err := r.Batch("d", func(doc *xmltree.Document, b *update.Batch) error {
		for range k {
			b.AppendChild(doc.Root(), "n")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inserted != k {
		t.Fatalf("inserted %d, want %d", inserted, k)
	}
	if ctr := counters(t, r, "d"); ctr.Verifies != 1 || ctr.Batches != 1 {
		t.Fatalf("batch counters = %+v, want one verify/batch", ctr)
	}
	if _, err := r.Batch("d", appendTo("single")); err != nil {
		t.Fatal(err)
	}
	if ctr := counters(t, r, "d"); ctr.Verifies != 2 || ctr.Batches != 2 {
		t.Fatalf("after a one-op batch Verifies = %d, Batches = %d, want 2 and 2", ctr.Verifies, ctr.Batches)
	}
	if err := r.Verify("d"); err != nil {
		t.Fatal(err)
	}
}

// TestBatchAdvancesVersionOnce: a three-op Batch is one transaction, on
// the in-memory repository and on the leader alike — the document's
// Version advances by exactly one.
func TestBatchAdvancesVersionOnce(t *testing.T) {
	three := func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "x")
		b.SetAttr(doc.Root(), "n", "3")
		b.InsertFirstChild(doc.Root(), "y")
		return nil
	}
	r := New()
	d, err := OpenDurable(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, c := range []struct {
		role  string
		mem   *Repository
		open  func(string, *xmltree.Document, string) error
		batch func(string, func(*xmltree.Document, *update.Batch) error) (int, error)
	}{
		{"Repository", r, r.Open, r.Batch},
		{"DurableRepository", d.repo(), d.Open, d.Batch},
	} {
		if err := c.open("v", mustParse(t, "<r><a/></r>"), "qed"); err != nil {
			t.Fatal(err)
		}
		v0 := mustDoc(t, c.mem, "v").Version()
		if _, err := c.batch("v", three); err != nil {
			t.Fatal(err)
		}
		if v := mustDoc(t, c.mem, "v").Version(); v != v0+1 {
			t.Errorf("%s: a 3-op Batch moved Version %d → %d, want +1", c.role, v0, v)
		}
	}
}

// TestSaveLoad round-trips a scheme-diverse repository through the v7
// image.
func TestSaveLoad(t *testing.T) {
	r := testRepo(t)
	// Mutate every document a little first.
	for _, name := range r.Names() {
		if _, err := r.Batch(name, appendTo("mut")); err != nil {
			t.Fatal(err)
		}
	}
	data, err := r.Save()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r.Len() {
		t.Fatalf("loaded %d docs, want %d", r2.Len(), r.Len())
	}
	for _, name := range r.Names() {
		s1, _ := r.Scheme(name)
		s2, ok := r2.Scheme(name)
		if !ok {
			t.Fatalf("loaded repo missing %q", name)
		}
		if s1 != s2 {
			t.Fatalf("%q scheme %s != %s", name, s2, s1)
		}
		if x1, x2 := repoXML(t, r, name), repoXML(t, r2, name); x1 != x2 {
			t.Fatalf("%q round-trip mismatch:\n%s\nvs\n%s", name, x1, x2)
		}
		if err := r2.Verify(name); err != nil {
			t.Fatalf("%q after load: %v", name, err)
		}
	}
	// Loaded repository accepts further updates.
	if _, err := r2.Batch("doc-0", appendTo("more")); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	data, err := testRepo(t).Save()
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if _, err := Load(data); err == nil {
		t.Fatal("corrupt container loaded")
	}
}

func TestShardDistribution(t *testing.T) {
	r := New()
	for i := 0; i < 256; i++ {
		doc, err := xmltree.ParseString("<r/>")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Open(fmt.Sprintf("doc-%d", i), doc, "qed"); err != nil {
			t.Fatal(err)
		}
	}
	// Every shard should hold something: FNV spreads 256 names far
	// better than this weak bound.
	for i := range r.shards {
		r.shards[i].mu.RLock()
		n := len(r.shards[i].docs)
		r.shards[i].mu.RUnlock()
		if n == 0 {
			t.Fatalf("shard %d empty", i)
		}
	}
	if r.Len() != 256 {
		t.Fatalf("Len = %d", r.Len())
	}
}
