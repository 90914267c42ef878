package update

import (
	"errors"
	"testing"

	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/xmltree"
)

// hookSession builds a session over <r><a/><b/></r> with a counting
// commit hook installed.
func hookSession(t *testing.T) (*Session, *xmltree.Document, *int) {
	t.Helper()
	doc, err := xmltree.ParseString("<r><a/><b/></r>")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	s.SetOnCommit(func() { fired++ })
	return s, doc, &fired
}

func TestOnCommitFiresPerSingleOp(t *testing.T) {
	s, doc, fired := hookSession(t)
	if _, err := s.AppendChild(doc.Root(), "c"); err != nil {
		t.Fatal(err)
	}
	if *fired != 1 {
		t.Fatalf("after one op: hook fired %d times, want 1", *fired)
	}
	if err := s.SetText(doc.Root().FirstChild(), "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(doc.Root().LastChild()); err != nil {
		t.Fatal(err)
	}
	if *fired != 3 {
		t.Fatalf("after three ops: hook fired %d times, want 3", *fired)
	}
}

func TestOnCommitFiresOncePerBatch(t *testing.T) {
	s, doc, fired := hookSession(t)
	root := doc.Root()
	_, err := s.Apply([]Op{
		AppendChildOp(root, "c"),
		AppendChildOp(root, "d"),
		SetTextOp(root.FirstChild(), "x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if *fired != 1 {
		t.Fatalf("after a 3-op batch: hook fired %d times, want 1", *fired)
	}
}

func TestOnCommitFiresOnFailedBatchRollback(t *testing.T) {
	s, doc, fired := hookSession(t)
	root := doc.Root()
	detached := xmltree.NewElement("loose")
	// Op 0 applies, op 1 fails (detached ref) → rollback runs. The tree
	// ends where it started, but it WAS mutated in between, so the hook
	// must have fired.
	_, err := s.Apply([]Op{
		AppendChildOp(root, "c"),
		SetTextOp(detached, "x"),
	})
	if err == nil {
		t.Fatal("batch with a detached ref committed")
	}
	if !errors.Is(err, ErrDetachedRef) {
		t.Fatalf("unexpected error: %v", err)
	}
	if *fired != 1 {
		t.Fatalf("after a rolled-back batch: hook fired %d times, want 1", *fired)
	}
}

func TestOnCommitFiresOnStagedRollback(t *testing.T) {
	s, doc, fired := hookSession(t)
	_, rollback, err := s.ApplyStaged([]Op{AppendChildOp(doc.Root(), "c")})
	if err != nil {
		t.Fatal(err)
	}
	if *fired != 1 {
		t.Fatalf("after staged apply: hook fired %d times, want 1", *fired)
	}
	if err := rollback(); err != nil {
		t.Fatal(err)
	}
	if *fired != 2 {
		t.Fatalf("after staged rollback: hook fired %d times, want 2", *fired)
	}
}

func TestOnCommitFiresOnTextOnlyDeleteChildren(t *testing.T) {
	s, doc, fired := hookSession(t)
	a := doc.Root().FirstChild()
	if err := s.SetText(a, "payload"); err != nil {
		t.Fatal(err)
	}
	before := *fired
	// <a> has only a text child: DeleteChildren detaches it outside
	// the op machinery, but the tree changed — the hook must fire.
	if err := s.DeleteChildren(a); err != nil {
		t.Fatal(err)
	}
	if *fired != before+1 {
		t.Fatalf("text-only DeleteChildren: hook fired %d times, want %d", *fired, before+1)
	}
}

func TestOnCommitFiresOnFailedMove(t *testing.T) {
	s, doc, fired := hookSession(t)
	a := doc.Root().FirstChild()
	if err := s.SetText(doc.Root().LastChild(), "t"); err != nil {
		t.Fatal(err)
	}
	text := doc.Root().LastChild().FirstChild()
	if text.Kind() != xmltree.KindText {
		t.Fatal("setup: expected a text node")
	}
	before := *fired
	// Re-attach under a text node fails AFTER the detach: the move is
	// reverted, and the tree was mutated on the way, so the hook fires —
	// once.
	if err := s.MoveAppend(text, a); err == nil {
		t.Fatal("move under a text node succeeded")
	}
	if a.Parent() != doc.Root() {
		t.Fatal("failed move lost the subtree")
	}
	if *fired != before+1 {
		t.Fatalf("failed move: hook fired %d times, want %d", *fired, before+1)
	}
}

func TestOnCommitNilHookIsNoOp(t *testing.T) {
	s, doc, fired := hookSession(t)
	s.SetOnCommit(nil)
	if _, err := s.AppendChild(doc.Root(), "c"); err != nil {
		t.Fatal(err)
	}
	if *fired != 0 {
		t.Fatalf("removed hook still fired %d times", *fired)
	}
}
