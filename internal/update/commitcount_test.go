package update

import (
	"errors"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/xmltree"
)

// A committed transaction is counted once — one operation, and one
// batch when it came as one — and a failed, empty or aborted one not at
// all. The repository advances a document's version at the same moments
// (internal/repo's TestVersionAdvancesOncePerCommit).

// countSession builds a session over <r><a/><b/></r>.
func countSession(t *testing.T) (*Session, *xmltree.Document) {
	t.Helper()
	doc, err := xmltree.ParseString("<r><a/><b/></r>")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	return s, doc
}

// wantCommits fails unless the session has counted ops operations and
// batches batches.
func wantCommits(t *testing.T, s *Session, what string, ops, batches int64) {
	t.Helper()
	if c := s.Counters(); c.Operations != ops || c.Batches != batches {
		t.Fatalf("%s: %d operations and %d batches counted, want %d and %d", what, c.Operations, c.Batches, ops, batches)
	}
}

func TestCommitCountsPerSingleOp(t *testing.T) {
	s, doc := countSession(t)
	if _, err := s.AppendChild(doc.Root(), "c"); err != nil {
		t.Fatal(err)
	}
	wantCommits(t, s, "after one op", 1, 0)
	if err := s.SetText(doc.Root().FirstChild(), "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(doc.Root().LastChild()); err != nil {
		t.Fatal(err)
	}
	wantCommits(t, s, "after three ops", 3, 0)
}

func TestCommitCountsOncePerBatch(t *testing.T) {
	s, doc := countSession(t)
	root := doc.Root()
	_, err := s.Apply([]Op{
		AppendChildOp(root, "c"),
		AppendChildOp(root, "d"),
		SetTextOp(root.FirstChild(), "x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCommits(t, s, "after a 3-op batch", 1, 1)
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

// A batch whose rollback itself fails reports ErrRollback and counts
// nothing: the session cannot say what state it left, so the caller
// must (the repository advances the document's version and poisons a
// durable leader: internal/repo's TestFailedRollbackPoisons).
func TestFailedRollbackCountsNothing(t *testing.T) {
	doc, err := xmltree.ParseString("<r><a/><b/></r>")
	if err != nil {
		t.Fatal(err)
	}
	lab := &failingInserts{Interface: qed.NewPrefix()}
	s, err := NewSession(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	// The delete applies, the insert fails in NodeInserted, and undoing
	// the delete re-labels through the same failing NodeInserted.
	lab.fail = true
	_, err = s.Apply([]Op{DeleteOp(doc.Root().FirstChild()), AppendChildOp(doc.Root(), "x")})
	if !errors.Is(err, ErrRollback) {
		t.Fatalf("batch with a failing rollback: %v, want ErrRollback", err)
	}
	wantCommits(t, s, "after a failed rollback", 0, 0)
}

// A batch that fails at apply time reverts cleanly and counts nothing.
func TestCommitCountsNothingOnFailedBatch(t *testing.T) {
	s, doc := countSession(t)
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
	wantCommits(t, s, "after a reverted batch", 0, 0)
}

// Stage counts nothing, Abort counts nothing, Commit counts once.
func TestCommitCountsNothingOnStagedAbort(t *testing.T) {
	s, doc := countSession(t)
	for _, commit := range []bool{false, true} {
		if _, err := s.Stage([]Op{AppendChildOp(doc.Root(), "c")}); err != nil {
			t.Fatal(err)
		}
		wantCommits(t, s, "after Stage", 0, 0)
		if !commit {
			if err := s.Abort(); err != nil {
				t.Fatal(err)
			}
			wantCommits(t, s, "after Abort", 0, 0)
			continue
		}
		s.Commit()
		s.Commit() // nothing staged any more: a no-op
		wantCommits(t, s, "after Commit", 1, 1)
	}
}

// While a transaction is staged the session takes no other — staged,
// batched or single — and the refusal leaves the staged one intact: it
// still commits, or aborts, as if nothing had been tried.
func TestStageWhileStagedIsRefused(t *testing.T) {
	for _, commit := range []bool{false, true} {
		s, doc := countSession(t)
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
			"move": func() error {
				a := doc.Root().FirstChild()
				_, err := s.Apply([]Op{DeleteOp(a), AppendSubtreeOp(doc.Root().LastChild(), a)})
				return err
			},
		} {
			if err := try(); !errors.Is(err, ErrStaged) {
				t.Fatalf("%s while staged: %v, want ErrStaged", name, err)
			}
			if got := doc.XML(); got != staged {
				t.Fatalf("%s while staged changed the document:\n got %s\nwant %s", name, got, staged)
			}
		}
		wantCommits(t, s, "with nothing committed", 0, 0)
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

func TestCommitCountsTextOnlyDeleteChildren(t *testing.T) {
	s, doc := countSession(t)
	a := doc.Root().FirstChild()
	if err := s.SetText(a, "payload"); err != nil {
		t.Fatal(err)
	}
	// <a> has only a text child: deleting its children removes it
	// though no labelled node goes, and the tree changed — it is one
	// commit, and one batch.
	if _, err := s.Apply([]Op{DeleteOp(a.FirstChild())}); err != nil {
		t.Fatal(err)
	}
	wantCommits(t, s, "after SetText and a text-only delete of the children", 2, 1)
	if a.FirstChild() != nil {
		t.Fatal("the delete left the text child")
	}
}

func TestCommitCountsNothingOnFailedMove(t *testing.T) {
	s, doc := countSession(t)
	a := doc.Root().FirstChild()
	if err := s.SetText(doc.Root().LastChild(), "t"); err != nil {
		t.Fatal(err)
	}
	text := doc.Root().LastChild().FirstChild()
	if text.Kind() != xmltree.KindText {
		t.Fatal("setup: expected a text node")
	}
	// Re-attach under a text node fails AFTER the detach: the move is
	// reverted, a is back where it was, and nothing is counted.
	if _, err := s.Apply([]Op{DeleteOp(a), AppendSubtreeOp(text, a)}); err == nil {
		t.Fatal("move under a text node succeeded")
	}
	if a.Parent() != doc.Root() {
		t.Fatal("failed move lost the subtree")
	}
	wantCommits(t, s, "after SetText and a failed move", 1, 0)
}
