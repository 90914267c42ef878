package update

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/xmltree"
)

// TestBatchVerifiesOnce is the core batching contract: a batch of K
// inserts triggers exactly one order verification and counts as one
// operation, where the op-at-a-time path with auto-verify triggers K.
func TestBatchVerifiesOnce(t *testing.T) {
	const k = 64

	// Op-at-a-time path with auto-verify: K verifies, K operations.
	doc := xmltree.ExampleTree()
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	s.SetAutoVerify(true)
	root := doc.Root()
	for i := 0; i < k; i++ {
		if _, err := s.AppendChild(root, "single"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Counters(); got.Verifies != k || got.Operations != k {
		t.Fatalf("single-op path: Verifies=%d Operations=%d, want %d and %d",
			got.Verifies, got.Operations, k, k)
	}

	// Batched path: one verify, one operation, one batch.
	doc = xmltree.ExampleTree()
	s, err = NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	s.SetAutoVerify(true)
	ops := make([]Op, k)
	for i := range ops {
		ops[i] = AppendChildOp(doc.Root(), "batched")
	}
	res, err := s.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Counters()
	if got.Verifies != 1 {
		t.Fatalf("batched path: Verifies=%d, want 1", got.Verifies)
	}
	if got.Operations != 1 || got.Batches != 1 {
		t.Fatalf("batched path: Operations=%d Batches=%d, want 1 and 1", got.Operations, got.Batches)
	}
	if got.Inserts != k {
		t.Fatalf("batched path: Inserts=%d, want %d", got.Inserts, k)
	}
	if len(res.New) != k {
		t.Fatalf("res.New has %d entries, want %d", len(res.New), k)
	}
	for i, n := range res.New {
		if n == nil || n.Name() != "batched" {
			t.Fatalf("res.New[%d] = %v, want a created element", i, n)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchBuilder exercises the fluent builder over mixed structural
// and content ops.
func TestBatchBuilder(t *testing.T) {
	doc, err := xmltree.ParseString(`<lib><book year="2001"><title>Old</title></book><mag/></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(doc, dewey.New())
	if err != nil {
		t.Fatal(err)
	}
	s.SetAutoVerify(true)
	book := doc.FindElement("book")
	mag := doc.FindElement("mag")
	title := doc.FindElement("title")

	sub := xmltree.NewElement("appendix")
	if err := sub.AppendChild(xmltree.NewElement("note")); err != nil {
		t.Fatal(err)
	}

	res, err := s.Batch().
		InsertAfter(book, "cd").
		AppendChild(book, "isbn").
		SetText(title, "New").
		Rename(mag, "magazine").
		SetAttr(book, "year", "2010").
		AppendSubtree(book, sub).
		Delete(title).
		Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.New[0] == nil || res.New[0].Name() != "cd" {
		t.Fatalf("New[0] = %v, want cd element", res.New[0])
	}
	if doc.FindElement("magazine") == nil {
		t.Fatal("rename did not apply")
	}
	if doc.FindElement("title") != nil {
		t.Fatal("delete did not apply")
	}
	if y, _ := book.Attr("year"); y != "2010" {
		t.Fatalf("year = %q, want 2010", y)
	}
	if doc.FindElement("appendix") == nil || doc.FindElement("note") == nil {
		t.Fatal("subtree graft did not apply")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	ctr := s.Counters()
	if ctr.Batches != 1 || ctr.Operations != 1 || ctr.Verifies != 1 {
		t.Fatalf("counters = %+v, want one batch/op/verify", ctr)
	}
}

// TestBatchValidationRejectsWithoutMutation: a statically invalid batch
// commits nothing at all.
func TestBatchValidationRejectsWithoutMutation(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	before := doc.XML()
	ctrBefore := s.Counters()

	detached := xmltree.NewElement("ghost")
	cases := []struct {
		name string
		ops  []Op
		want error
	}{
		{"nil ref", []Op{{Kind: OpAppendChild, Name: "x"}}, ErrEmptyOp},
		{"root sibling", []Op{InsertBeforeOp(doc.Root(), "x")}, ErrRootSibling},
		{"detached delete", []Op{DeleteOp(detached)}, ErrDetachedRef},
		{"missing subtree", []Op{{Kind: OpAppendSubtree, Ref: doc.Root()}}, ErrNoTree},
		{"attached subtree", []Op{AppendSubtreeOp(doc.Root(), doc.Root().Children()[0])}, ErrAttached},
		{"text on attr kind", []Op{SetTextOp(xmltree.NewAttribute("a", "v"), "t")}, ErrNotElement},
		{"bad kind", []Op{{Kind: OpKind(99), Ref: doc.Root()}}, ErrBadOp},
		{"valid then invalid", []Op{AppendChildOp(doc.Root(), "ok"), DeleteOp(detached)}, ErrDetachedRef},
	}
	for _, c := range cases {
		if _, err := s.Apply(c.ops); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if doc.XML() != before {
		t.Fatal("rejected batches mutated the document")
	}
	if s.Counters() != ctrBefore {
		t.Fatalf("rejected batches changed counters: %+v", s.Counters())
	}
	// A subtree used twice in one batch is rejected up front.
	tw := xmltree.NewElement("twice")
	ops := []Op{AppendSubtreeOp(doc.Root(), tw), AppendSubtreeOp(doc.Root(), tw)}
	if _, err := s.Apply(ops); !errors.Is(err, ErrAttached) {
		t.Fatalf("double graft: err = %v, want ErrAttached", err)
	}
}

// TestBatchRollback: an op that fails at apply time (its reference was
// deleted by an earlier op in the same batch) rolls the whole batch
// back — document bytes, labels and counters.
func TestBatchRollback(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b/></a><c>text</c><d k="v"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	a := doc.FindElement("a")
	c := doc.FindElement("c")
	d := doc.FindElement("d")
	before := doc.XML()
	ctrBefore := s.Counters()

	sub := xmltree.NewElement("graft")
	ops := []Op{
		AppendChildOp(doc.Root(), "new"),
		SetTextOp(c, "replaced"),
		RenameOp(d, "dd"),
		SetAttrOp(d, "k", "v2"),
		SetAttrOp(d, "fresh", "1"),
		AppendSubtreeOp(c, sub),
		DeleteOp(a),
		// a is already detached by the previous op: this fails at
		// apply time and must unwind everything above.
		DeleteOp(a),
	}
	if _, err := s.Apply(ops); !errors.Is(err, ErrDetachedRef) {
		t.Fatalf("err = %v, want ErrDetachedRef", err)
	}
	if got := doc.XML(); got != before {
		t.Fatalf("rollback mismatch:\n got %s\nwant %s", got, before)
	}
	if s.Counters() != ctrBefore {
		t.Fatalf("counters after rollback = %+v, want %+v", s.Counters(), ctrBefore)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("order after rollback: %v", err)
	}
	// The session still works after a rolled-back batch.
	if _, err := s.Apply([]Op{AppendChildOp(doc.Root(), "after")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchRejectsRefsInDeletedSubtree: an op whose reference sits
// inside a subtree an earlier op in the same batch deleted must fail
// the batch (and roll it back) rather than silently mutate the
// detached subtree, leak phantom labels, or double-count deletes.
func TestBatchRejectsRefsInDeletedSubtree(t *testing.T) {
	for name, mkOps := range map[string]func(a, b *xmltree.Node) []Op{
		"append under deleted child": func(a, b *xmltree.Node) []Op {
			return []Op{DeleteOp(a), AppendChildOp(b, "phantom")}
		},
		"insert after deleted child": func(a, b *xmltree.Node) []Op {
			return []Op{DeleteOp(a), InsertAfterOp(b, "phantom")}
		},
		"delete inside deleted subtree": func(a, b *xmltree.Node) []Op {
			return []Op{DeleteOp(a), DeleteOp(b)}
		},
		"rename inside deleted subtree": func(a, b *xmltree.Node) []Op {
			return []Op{DeleteOp(a), RenameOp(b, "zz")}
		},
		"set-text inside deleted subtree": func(a, b *xmltree.Node) []Op {
			return []Op{DeleteOp(a), SetTextOp(b, "zz")}
		},
	} {
		doc, err := xmltree.ParseString(`<r><a><b/></a><c/></r>`)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(doc, qed.NewPrefix())
		if err != nil {
			t.Fatal(err)
		}
		a, b := doc.FindElement("a"), doc.FindElement("b")
		before := doc.XML()
		ctrBefore := s.Counters()
		if _, err := s.Apply(mkOps(a, b)); !errors.Is(err, ErrDetachedRef) {
			t.Fatalf("%s: err = %v, want ErrDetachedRef", name, err)
		}
		if doc.XML() != before {
			t.Fatalf("%s: document changed: %s", name, doc.XML())
		}
		if s.Counters() != ctrBefore {
			t.Fatalf("%s: counters leaked: %+v", name, s.Counters())
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestBatchRollbackRestoresAttrOrder: rolling back a deleted attribute
// puts it back at its original position, not at the end of the list —
// attribute order is document order.
func TestBatchRollbackRestoresAttrOrder(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><e a="1" b="2" c="3"/><x/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	e, x := doc.FindElement("e"), doc.FindElement("x")
	var attrA *xmltree.Node
	for _, a := range e.Attributes() {
		if a.Name() == "a" {
			attrA = a
		}
	}
	before := doc.XML()
	ops := []Op{
		DeleteOp(attrA),
		DeleteOp(x),
		DeleteOp(x), // fails: already detached
	}
	if _, err := s.Apply(ops); !errors.Is(err, ErrDetachedRef) {
		t.Fatalf("err = %v, want ErrDetachedRef", err)
	}
	if got := doc.XML(); got != before {
		t.Fatalf("attribute order not restored:\n got %s\nwant %s", got, before)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchMove: the documented batched-move recipe — DeleteOp plus an
// InsertSubtree*Op on the same node — passes validation (the root is
// attached at validation time but doomed by the earlier delete) and
// lands the subtree at the destination with fresh labels.
func TestBatchMove(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b/></a><c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	a, c := doc.FindElement("a"), doc.FindElement("c")
	if _, err := s.Apply([]Op{DeleteOp(a), InsertSubtreeAfterOp(c, a)}); err != nil {
		t.Fatal(err)
	}
	if got, want := doc.XML(), `<r><c/><a><b/></a></r>`; got != want {
		t.Fatalf("moved doc = %s, want %s", got, want)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	ctr := s.Counters()
	if ctr.Deletes != 2 || ctr.Inserts != 2 {
		t.Fatalf("counters = %+v, want 2 deletes + 2 inserts (a and b)", ctr)
	}
	// A move batch that fails later still rolls back to the original.
	doc2, err := xmltree.ParseString(`<r><a><b/></a><c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(doc2, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	a2, c2 := doc2.FindElement("a"), doc2.FindElement("c")
	before := doc2.XML()
	ops := []Op{DeleteOp(a2), InsertSubtreeAfterOp(c2, a2), DeleteOp(c2), DeleteOp(c2)}
	if _, err := s2.Apply(ops); !errors.Is(err, ErrDetachedRef) {
		t.Fatalf("err = %v, want ErrDetachedRef", err)
	}
	if doc2.XML() != before {
		t.Fatalf("move rollback: %s, want %s", doc2.XML(), before)
	}
	if err := s2.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchEmpty: an empty batch is a no-op.
func TestBatchEmpty(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply(nil)
	if err != nil || len(res.New) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	if ctr := s.Counters(); ctr.Batches != 0 || ctr.Operations != 0 {
		t.Fatalf("empty batch counted: %+v", ctr)
	}
}

// TestBatchEquivalentToSingles: the batched path must land the same
// final document and labels as the op-at-a-time path.
func TestBatchEquivalentToSingles(t *testing.T) {
	build := func() (*Session, *xmltree.Document) {
		doc, err := xmltree.ParseString(`<r><a/><b/><c/></r>`)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(doc, dewey.New())
		if err != nil {
			t.Fatal(err)
		}
		return s, doc
	}

	s1, d1 := build()
	a1 := d1.FindElement("a")
	if _, err := s1.InsertAfter(a1, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AppendChild(d1.Root(), "y"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Delete(d1.FindElement("b")); err != nil {
		t.Fatal(err)
	}

	s2, d2 := build()
	a2 := d2.FindElement("a")
	if _, err := s2.Apply([]Op{
		InsertAfterOp(a2, "x"),
		AppendChildOp(d2.Root(), "y"),
		DeleteOp(d2.FindElement("b")),
	}); err != nil {
		t.Fatal(err)
	}

	if d1.XML() != d2.XML() {
		t.Fatalf("documents diverge:\nsingle %s\nbatch  %s", d1.XML(), d2.XML())
	}
	if err := s2.Verify(); err != nil {
		t.Fatal(err)
	}
	c1, c2 := s1.Counters(), s2.Counters()
	if c1.Inserts != c2.Inserts || c1.Deletes != c2.Deletes {
		t.Fatalf("node counts diverge: single %+v batch %+v", c1, c2)
	}
}

// TestOpKindString covers the op vocabulary names.
func TestOpKindString(t *testing.T) {
	for k := OpInsertBefore; k <= OpSetAttr; k++ {
		if s := k.String(); s == "" || s == fmt.Sprintf("op(%d)", int(k)) {
			t.Fatalf("OpKind(%d) has no name", int(k))
		}
	}
	if s := OpKind(99).String(); s != "op(99)" {
		t.Fatalf("unknown kind = %q", s)
	}
}

// TestStageEmpty: an empty staged batch opens no transaction — Commit
// and Abort have nothing to end, and the next transaction is not
// refused.
func TestStageEmpty(t *testing.T) {
	doc := xmltree.ExampleTree()
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	s.SetOnCommit(func() { fired++ })
	for _, end := range []func() error{s.Abort, func() error { s.Commit(); return nil }} {
		res, err := s.Stage(nil)
		if err != nil || res == nil || len(res.New) != 0 {
			t.Fatalf("empty stage: %v, %v", res, err)
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
	}
	if ctr := s.Counters(); ctr != (Counters{}) || fired != 0 {
		t.Fatalf("empty stages counted %+v and fired the hook %d times", ctr, fired)
	}
	if _, err := s.Stage([]Op{AppendChildOp(doc.Root(), "x")}); err != nil {
		t.Fatalf("stage after empty stages: %v", err)
	}
}

// TestSetTextAbortRestoresChildOrder: a SetText on an element with
// several text children detaches them last to first; staging it and
// aborting puts every child back where it stood — the same nodes in the
// same order, not only the same text.
func TestSetTextAbortRestoresChildOrder(t *testing.T) {
	doc, err := xmltree.ParseString(`<r>one<a/>two<b/>three<c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	before, kids := doc.XML(), slices.Clone(doc.Root().Children())
	if _, err := s.Stage([]Op{SetTextOp(doc.Root(), "new")}); err != nil {
		t.Fatal(err)
	}
	if got := doc.Root().Text(); got != "new" {
		t.Fatalf("staged text %q, want %q", got, "new")
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := doc.XML(); got != before {
		t.Fatalf("after the abort:\n got %s\nwant %s", got, before)
	}
	if !slices.Equal(doc.Root().Children(), kids) {
		t.Fatal("the abort restored the text but not the nodes' order")
	}
}

// TestBatchResetAndAddEncoded: a reset batch queues nothing and keeps no
// node reachable from its slots, lets go of a backing array past the
// keep it is given, and takes an encoded program after ops already
// queued — back-references and all — exactly as DecodeOps reads it.
func TestBatchResetAndAddEncoded(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b/></a><c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	a, c := doc.FindElement("a"), doc.FindElement("c")
	move := []Op{DeleteOp(a), AppendSubtreeOp(c, a)}
	enc, err := EncodeOps(doc, move)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Batch().Rename(c, "d")
	if err := b.AddEncoded(enc); err != nil {
		t.Fatal(err)
	}
	if got := b.Ops(); len(got) != 3 || got[1] != move[0] || got[2] != move[1] {
		t.Fatalf("queued %+v, want the rename and then %+v", got, move)
	}
	if err := b.AddEncoded(enc[:len(enc)-1]); !errors.Is(err, ErrCodecCorrupt) {
		t.Fatalf("truncated program: %v, want ErrCodecCorrupt", err)
	}
	slots := b.Ops()[:cap(b.Ops())]
	b.Reset(len(slots))
	if b.Len() != 0 || cap(b.Ops()) != len(slots) {
		t.Fatalf("reset within keep: %d ops queued, capacity %d of %d", b.Len(), cap(b.Ops()), len(slots))
	}
	for i, op := range slots {
		if op != (Op{}) {
			t.Fatalf("slot %d still holds %+v after the reset", i, op)
		}
	}
	b.Rename(c, "e").Reset(0)
	if cap(b.Ops()) != 0 {
		t.Fatalf("reset past keep kept a backing array of %d", cap(b.Ops()))
	}
}

// TestOversizedTransactionMarksAreLetGo: validating a transaction of
// 10 000 deletes grows the session's mark set to as many entries, and a
// cleared map keeps its buckets. The reset that lets the batch's backing
// array go lets the map go with it; a small transaction's is kept, empty.
func TestOversizedTransactionMarksAreLetGo(t *testing.T) {
	const keep, big = 1024, 10000
	doc, err := xmltree.ParseString("<r>" + strings.Repeat("<x/>", big+2) + "</r>")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	kids := slices.Clone(doc.Root().Children())
	b := s.Batch().Delete(kids[0]).Delete(kids[1])
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if b.Reset(keep); s.marks == nil || len(s.marks) != 0 {
		t.Fatalf("after a 2-delete transaction the mark set is %v (%d entries), want kept and empty", s.marks, len(s.marks))
	}
	for _, k := range kids[2:] {
		b.Delete(k)
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(s.marks) != 0 {
		t.Fatalf("%d marks outlive the validation", len(s.marks))
	}
	if b.Reset(keep); s.marks != nil || cap(b.Ops()) != 0 {
		t.Fatalf("after a %d-delete transaction the session keeps its mark set (nil: %t) and the batch room for %d ops", big, s.marks == nil, cap(b.Ops()))
	}
}
