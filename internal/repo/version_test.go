package repo

import (
	"errors"
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// TestVersionAdvancesOncePerCommit: Doc.Version steps once for each
// document a transaction committed on — a Batch, each document of a
// MultiBatch that queued ops, a replayed record, a durable Batch — and
// not for an empty transaction, a build that fails, or a transaction
// that fails and reverts. (TestAbortPublishesNothing holds every abort
// form; TestFailedRollbackPoisons the one failure that does advance.)
func TestVersionAdvancesOncePerCommit(t *testing.T) {
	r := snapRepo(t, "a", "b")
	d, err := OpenDurable(t.TempDir(), DurableOptions{Sync: wal.SyncAsync, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Open("a", mustParse(t, "<r><seed/></r>"), "qed"); err != nil {
		t.Fatal(err)
	}
	var payload []byte
	if err := r.View("a", func(s *update.Session) error {
		enc, err := update.EncodeOps(s.Document(), []update.Op{update.AppendChildOp(s.Document().Root(), "replayed")})
		payload = appendRecord(nil, record{kind: RecBatch, parts: []recordPart{{"a", enc}}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("build failed")
	both := func(build func(name string, md *MultiDoc)) error {
		_, err := r.MultiBatch([]string{"b", "a"}, func(m map[string]*MultiDoc) error {
			for name, md := range m {
				build(name, md)
			}
			return nil
		})
		return err
	}
	for _, c := range []struct {
		name    string
		run     func() error
		repo    *Repository
		advance map[string]uint64
	}{
		{"Batch", func() error { _, err := r.Batch("a", appendTo("x")); return err }, r, map[string]uint64{"a": 1}},
		{"MultiBatch", func() error {
			return both(func(_ string, md *MultiDoc) { md.Batch().AppendChild(md.Document().Root(), "x") })
		}, r, map[string]uint64{"a": 1, "b": 1}},
		{"MultiBatch with an empty part", func() error {
			return both(func(name string, md *MultiDoc) {
				if name == "b" {
					md.Batch().AppendChild(md.Document().Root(), "x")
				}
			})
		}, r, map[string]uint64{"b": 1}},
		{"replayed record", func() error { return applyRecord(r, payload) }, r, map[string]uint64{"a": 1}},
		{"durable Batch", func() error { _, err := d.Batch("a", appendTo("x")); return err }, d.repo(), map[string]uint64{"a": 1}},
		{"empty Batch", func() error {
			_, err := r.Batch("a", func(*xmltree.Document, *update.Batch) error { return nil })
			return err
		}, r, nil},
		{"empty MultiBatch", func() error { return both(func(string, *MultiDoc) {}) }, r, nil},
		{"failed build", func() error {
			_, err := r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
				b.AppendChild(doc.Root(), "x")
				return failed
			})
			if !errors.Is(err, failed) {
				t.Fatalf("failed build: %v", err)
			}
			return nil
		}, r, nil},
		{"failed MultiBatch", func() error {
			err := both(func(name string, md *MultiDoc) {
				md.Batch().AppendChild(md.Document().Root(), "x")
				if name == "b" { // b stages after a: a is aborted
					md.Batch().Delete(xmltree.NewElement("loose"))
				}
			})
			if !errors.Is(err, update.ErrDetachedRef) {
				t.Fatalf("failed MultiBatch: %v", err)
			}
			return nil
		}, r, nil},
	} {
		before := map[string]uint64{}
		for _, name := range c.repo.Names() {
			before[name] = mustDoc(t, c.repo, name).Version()
		}
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for name, was := range before {
			if got, want := mustDoc(t, c.repo, name).Version(), was+c.advance[name]; got != want {
				t.Errorf("%s: %s at version %d, want %d", c.name, name, got, want)
			}
		}
	}
}
