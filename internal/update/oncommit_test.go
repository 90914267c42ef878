package update

import (
	"errors"
	"testing"

	"xmldyn/internal/labeling"
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

// failingInserts is a labelling whose NodeInserted fails on demand, so
// that a revert which has to re-label a restored subtree fails too.
type failingInserts struct {
	labeling.Interface
	fail bool
}

func (l *failingInserts) NodeInserted(n *xmltree.Node) error {
	if l.fail {
		return errors.New("injected labelling failure")
	}
	return l.Interface.NodeInserted(n)
}

// The rollback of a batch that itself fails is the one abort the hook
// hears of: the tree may hold a state no commit produced.
func TestOnCommitFiresOnFailedBatchRollback(t *testing.T) {
	doc, err := xmltree.ParseString("<r><a/><b/></r>")
	if err != nil {
		t.Fatal(err)
	}
	lab := &failingInserts{Interface: qed.NewPrefix()}
	s, err := NewSession(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	s.SetOnCommit(func() { fired++ })
	// The delete applies, the insert fails in NodeInserted, and undoing
	// the delete re-labels through the same failing NodeInserted.
	lab.fail = true
	_, err = s.Apply([]Op{DeleteOp(doc.Root().FirstChild()), AppendChildOp(doc.Root(), "x")})
	if !errors.Is(err, ErrRollback) {
		t.Fatalf("batch with a failing rollback: %v, want ErrRollback", err)
	}
	if fired != 1 {
		t.Fatalf("after a failed rollback: hook fired %d times, want 1", fired)
	}
}

// A batch that fails at apply time reverts cleanly: the tree is what the
// hook last announced, so there is nothing to announce.
func TestOnCommitSilentOnFailedBatch(t *testing.T) {
	s, doc, fired := hookSession(t)
	root := doc.Root()
	detached := xmltree.NewElement("loose")
	// Op 0 applies, op 1 fails (detached ref) → the stage reverts itself.
	_, err := s.Apply([]Op{
		AppendChildOp(root, "c"),
		SetTextOp(detached, "x"),
	})
	if !errors.Is(err, ErrDetachedRef) {
		t.Fatalf("batch with a detached ref: %v, want ErrDetachedRef", err)
	}
	if *fired != 0 {
		t.Fatalf("after a reverted batch: hook fired %d times, want 0", *fired)
	}
}

// Stage tells the hook nothing, Abort tells it nothing, Commit tells it
// once.
func TestOnCommitSilentOnStagedAbort(t *testing.T) {
	s, doc, fired := hookSession(t)
	for _, commit := range []bool{false, true} {
		if _, err := s.Stage([]Op{AppendChildOp(doc.Root(), "c")}); err != nil {
			t.Fatal(err)
		}
		if *fired != 0 {
			t.Fatalf("after Stage: hook fired %d times, want 0", *fired)
		}
		if !commit {
			if err := s.Abort(); err != nil {
				t.Fatal(err)
			}
			if *fired != 0 {
				t.Fatalf("after Abort: hook fired %d times, want 0", *fired)
			}
			continue
		}
		s.Commit()
		s.Commit() // nothing staged any more: a no-op
		if *fired != 1 {
			t.Fatalf("after Commit: hook fired %d times, want 1", *fired)
		}
	}
}

// While a transaction is staged the session takes no other — staged,
// batched or single — and the refusal leaves the staged one intact: it
// still commits, or aborts, as if nothing had been tried.
func TestStageWhileStagedIsRefused(t *testing.T) {
	for _, commit := range []bool{false, true} {
		s, doc, fired := hookSession(t)
		before, ctr := doc.XML(), s.Counters()
		if _, err := s.Stage([]Op{AppendChildOp(doc.Root(), "c")}); err != nil {
			t.Fatal(err)
		}
		staged := doc.XML()
		for name, try := range map[string]func() error{
			"Stage":      func() error { _, err := s.Stage([]Op{AppendChildOp(doc.Root(), "d")}); return err },
			"Stage(nil)": func() error { _, err := s.Stage(nil); return err },
			"Apply":      func() error { _, err := s.Apply([]Op{AppendChildOp(doc.Root(), "d")}); return err },
			"single op":  func() error { return s.Delete(doc.Root().FirstChild()) },
			"move":       func() error { return s.MoveAppend(doc.Root().LastChild(), doc.Root().FirstChild()) },
		} {
			if err := try(); !errors.Is(err, ErrStaged) {
				t.Fatalf("%s while staged: %v, want ErrStaged", name, err)
			}
			if got := doc.XML(); got != staged {
				t.Fatalf("%s while staged changed the document:\n got %s\nwant %s", name, got, staged)
			}
		}
		if *fired != 0 {
			t.Fatalf("hook fired %d times with nothing committed", *fired)
		}
		if commit {
			s.Commit()
			ctr.Inserts, ctr.Operations, ctr.Batches = ctr.Inserts+1, ctr.Operations+1, ctr.Batches+1
			before = staged
		} else if err := s.Abort(); err != nil {
			t.Fatal(err)
		}
		if got := doc.XML(); got != before {
			t.Fatalf("commit=%v after the refusals:\n got %s\nwant %s", commit, got, before)
		}
		if got := s.Counters(); got != ctr {
			t.Fatalf("commit=%v after the refusals: counters %+v, want %+v", commit, got, ctr)
		}
		if _, err := s.AppendChild(doc.Root(), "after"); err != nil {
			t.Fatalf("the session stays usable: %v", err)
		}
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

func TestOnCommitSilentOnFailedMove(t *testing.T) {
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
	// reverted, a is back where it was, and the hook has nothing to say.
	if err := s.MoveAppend(text, a); err == nil {
		t.Fatal("move under a text node succeeded")
	}
	if a.Parent() != doc.Root() {
		t.Fatal("failed move lost the subtree")
	}
	if *fired != before {
		t.Fatalf("failed move: hook fired %d times, want %d", *fired, before)
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
