package repo

import (
	"errors"
	"fmt"
	"testing"

	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/schemes/vector"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

func testRepo(t *testing.T) *Repository {
	t.Helper()
	r := New(Options{Shards: 4})
	for i, scheme := range []string{"qed", "deweyid", "ordpath", "vector", "cdqs"} {
		name := fmt.Sprintf("doc-%d", i)
		doc := workload.BaseDocument(int64(i), 60)
		if _, err := r.Open(name, doc, scheme); err != nil {
			t.Fatalf("open %s under %s: %v", name, scheme, err)
		}
	}
	return r
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
	d, ok := r.Get("doc-2")
	if !ok || d.Name() != "doc-2" || d.Scheme() != "ordpath" {
		t.Fatalf("Get doc-2 = %v %v", d, ok)
	}
	if _, ok := r.Get("missing"); ok {
		t.Fatal("Get missing succeeded")
	}
	if !r.Drop("doc-2") || r.Drop("doc-2") {
		t.Fatal("Drop semantics broken")
	}
	if r.Len() != 4 {
		t.Fatalf("Len after drop = %d", r.Len())
	}
}

func TestOpenErrors(t *testing.T) {
	r := New(Options{})
	doc := xmltree.ExampleTree()
	if _, err := r.Open("", doc, "qed"); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("empty name: %v", err)
	}
	if _, err := r.Open("d", doc, "no-such-scheme"); !errors.Is(err, ErrNoScheme) {
		t.Fatalf("bad scheme: %v", err)
	}
	if _, err := r.Open("d", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("d", xmltree.ExampleTree(), "qed"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := r.View("missing", func(*update.Session) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("view missing: %v", err)
	}
	if err := r.Update("missing", func(*update.Session) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if _, err := r.Batch("missing", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("batch missing: %v", err)
	}
	if _, err := r.Query("missing", "//a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("query missing: %v", err)
	}
}

// TestOpenSessionSchemeContract: sessions whose labeling is not a
// registry scheme are rejected at registration (their Save images
// could never Load), while registry-named sessions register and keep
// their name through save/restore.
func TestOpenSessionSchemeContract(t *testing.T) {
	r := New(Options{})
	s, err := update.NewSession(xmltree.ExampleTree(), vector.NewRange())
	if err != nil {
		t.Fatal(err)
	}
	// "vector-range" is a variant self-name with no registry entry.
	if _, err := r.OpenSession("v", s); !errors.Is(err, ErrNoScheme) {
		t.Fatalf("variant labeling: %v, want ErrNoScheme", err)
	}
	s2, err := update.NewSession(xmltree.ExampleTree(), qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.OpenSession("q", s2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Scheme() != "qed" {
		t.Fatalf("scheme = %q", d.Scheme())
	}
	data, err := r.Save()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(data, Options{}); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestUpdateAndQuery(t *testing.T) {
	r := New(Options{})
	doc, err := xmltree.ParseString(`<lib><book/><book/></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("lib", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	err = r.Update("lib", func(s *update.Session) error {
		_, err := s.AppendChild(s.Document().Root(), "book")
		return err
	})
	if err != nil {
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

// TestBatchThroughRepo: a repository batch verifies once, and the
// auto-verify default means single updates verify per op.
func TestBatchThroughRepo(t *testing.T) {
	r := New(Options{})
	doc, err := xmltree.ParseString(`<r><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Open("d", doc, "qed")
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	ops := make([]update.Op, k)
	for i := range ops {
		ops[i] = update.AppendChildOp(doc.Root(), "n")
	}
	res, err := d.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.New) != k {
		t.Fatalf("New = %d, want %d", len(res.New), k)
	}
	ctr := d.Counters()
	if ctr.Verifies != 1 || ctr.Batches != 1 {
		t.Fatalf("batch counters = %+v, want one verify/batch", ctr)
	}
	// A single op through Update verifies again (auto-verify default).
	err = d.Update(func(s *update.Session) error {
		_, err := s.AppendChild(doc.Root(), "single")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctr = d.Counters(); ctr.Verifies != 2 {
		t.Fatalf("after single op Verifies = %d, want 2", ctr.Verifies)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAutoVerifyOptOut(t *testing.T) {
	off := false
	r := New(Options{AutoVerify: &off})
	doc := xmltree.ExampleTree()
	d, err := r.Open("d", doc, "deweyid")
	if err != nil {
		t.Fatal(err)
	}
	err = d.Update(func(s *update.Session) error {
		_, err := s.AppendChild(doc.Root(), "x")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctr := d.Counters(); ctr.Verifies != 0 {
		t.Fatalf("opted-out Verifies = %d, want 0", ctr.Verifies)
	}
}

// TestSaveLoad round-trips a scheme-diverse repository through the v7
// image.
func TestSaveLoad(t *testing.T) {
	r := testRepo(t)
	// Mutate every document a little first.
	for _, name := range r.Names() {
		err := r.Update(name, func(s *update.Session) error {
			_, err := s.AppendChild(s.Document().Root(), "mut")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := r.Save()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Load(data, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r.Len() {
		t.Fatalf("loaded %d docs, want %d", r2.Len(), r.Len())
	}
	for _, name := range r.Names() {
		d1, _ := r.Get(name)
		d2, ok := r2.Get(name)
		if !ok {
			t.Fatalf("loaded repo missing %q", name)
		}
		if d1.Scheme() != d2.Scheme() {
			t.Fatalf("%q scheme %s != %s", name, d2.Scheme(), d1.Scheme())
		}
		var x1, x2 string
		if err := d1.View(func(s *update.Session) error { x1 = s.Document().XML(); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := d2.View(func(s *update.Session) error { x2 = s.Document().XML(); return nil }); err != nil {
			t.Fatal(err)
		}
		if x1 != x2 {
			t.Fatalf("%q round-trip mismatch:\n%s\nvs\n%s", name, x1, x2)
		}
		if err := d2.Verify(); err != nil {
			t.Fatalf("%q after load: %v", name, err)
		}
	}
	// Loaded repository accepts further updates.
	if err := r2.Update("doc-0", func(s *update.Session) error {
		_, err := s.AppendChild(s.Document().Root(), "more")
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	data, err := testRepo(t).Save()
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if _, err := Load(data, Options{}); err == nil {
		t.Fatal("corrupt container loaded")
	}
}

func TestShardDistribution(t *testing.T) {
	r := New(Options{Shards: 8})
	for i := 0; i < 256; i++ {
		doc, err := xmltree.ParseString("<r/>")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Open(fmt.Sprintf("doc-%d", i), doc, "qed"); err != nil {
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
