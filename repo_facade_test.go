package xmldyn

import (
	"errors"
	"testing"
)

// TestRepositoryFacade exercises the public repository surface:
// NewRepository, Open, batched writes, queries, save/restore.
func TestRepositoryFacade(t *testing.T) {
	r := NewRepository()
	doc, err := ParseString(`<shelf><book/><book/></shelf>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Open("shelf", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	if err := r.Open("shelf", doc, "qed"); !errors.Is(err, ErrRepoExists) {
		t.Fatalf("dup open: %v", err)
	}

	inserted, err := r.Batch("shelf", func(doc *Document, b *Batch) error {
		b.Add(AppendChildOp(doc.Root(), "book"))
		b.Add(AppendChildOp(doc.Root(), "book"))
		b.Add(SetAttrOp(doc.Root(), "owner", "me"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inserted != 2 {
		t.Fatalf("batch inserted %d elements, want 2", inserted)
	}
	nodes, err := r.Query("shelf", "//book")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("books = %d, want 4", len(nodes))
	}
	if owned, err := r.Query("shelf", "/shelf[@owner='me']/book[4]"); err != nil || len(owned) != 1 {
		t.Fatalf("the committed fourth book of the owned shelf: %d nodes, %v", len(owned), err)
	}
	err = r.View("shelf", func(s *Session) error {
		if ctr := s.Counters(); ctr.Batches != 1 || ctr.Verifies != 1 {
			t.Errorf("counters = %+v", ctr)
		}
		return nil
	})
	if err != nil {
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
	if scheme, ok := r2.Scheme("shelf"); !ok || scheme != "qed" {
		t.Fatalf("restored: %q %v", scheme, ok)
	}
	if err := r2.Verify("shelf"); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Query("missing", "//x"); !errors.Is(err, ErrRepoNotFound) {
		t.Fatalf("missing doc: %v", err)
	}
}

// TestSessionBatchFacade: the batch builder and Apply reached through
// the Session alias.
func TestSessionBatchFacade(t *testing.T) {
	doc, err := ParseString(`<r><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(doc, "cdqs")
	if err != nil {
		t.Fatal(err)
	}
	a := doc.FindElement("a")
	res, err := s.Apply(s.Batch().
		InsertAfter(a, "b").
		AppendChild(doc.Root(), "c").
		Ops())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.New) != 2 {
		t.Fatalf("New = %d, want 2", len(res.New))
	}
	if _, err := s.Apply([]Op{DeleteOp(a)}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyOrder(s); err != nil {
		t.Fatal(err)
	}
}
