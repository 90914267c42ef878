package repo

import (
	"errors"
	"reflect"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/labeling"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// flakyLabeling is a registry scheme's labeling (it reports the
// scheme's name, so OpenSession accepts it) whose NodeInserted fails on
// demand.
type flakyLabeling struct {
	labeling.Interface
	fail bool
}

func (l *flakyLabeling) NodeInserted(n *xmltree.Node) error {
	if l.fail {
		return errors.New("injected labelling failure")
	}
	return l.Interface.NodeInserted(n)
}

// A commit whose rollback itself fails leaves a tree the log cannot
// reproduce: whichever call committed it, the leader must refuse every
// further commit with ErrWALFailed until a Checkpoint re-captures
// memory, after which recovery reproduces memory again.
func TestFailedRollbackPoisons(t *testing.T) {
	// The ops whose rollback fails: the delete applies, the insert fails
	// in NodeInserted, and undoing the delete relabels through the same
	// failing NodeInserted.
	doomed := func(doc *xmltree.Document, b *update.Batch) {
		b.Delete(doc.Root().Children()[0]).AppendChild(doc.Root(), "x")
	}
	cases := map[string]func(d *DurableRepository) error{
		"Batch": func(d *DurableRepository) error {
			_, err := d.Batch("flaky", func(doc *xmltree.Document, b *update.Batch) error {
				doomed(doc, b)
				return nil
			})
			return err
		},
		"MultiBatch": func(d *DurableRepository) error {
			_, err := d.MultiBatch([]string{"other", "flaky"}, func(m map[string]*MultiDoc) error {
				doomed(m["flaky"].Document(), m["flaky"].Batch())
				m["other"].Batch().AppendChild(m["other"].Document().Root(), "y")
				return nil
			})
			return err
		},
	}
	for name, commit := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Open("other", mustParse(t, `<o/>`), "qed"); err != nil {
				t.Fatal(err)
			}
			lab := &flakyLabeling{Interface: core.MustScheme("qed").Factory()}
			sess, err := update.NewSession(mustParse(t, `<r><a/><b/></r>`), lab)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.repo().OpenSession("flaky", sess); err != nil {
				t.Fatal(err)
			}
			appendTo := func(doc string) error {
				_, err := d.Batch(doc, func(doc *xmltree.Document, b *update.Batch) error {
					b.AppendChild(doc.Root(), "later")
					return nil
				})
				return err
			}

			lab.fail = true
			err = commit(d)
			lab.fail = false
			if !errors.Is(err, update.ErrRollback) || !errors.Is(err, ErrWALFailed) {
				t.Fatalf("commit with a failing rollback: %v, want ErrRollback under ErrWALFailed", err)
			}
			for _, doc := range []string{"other", "flaky"} {
				if err := appendTo(doc); !errors.Is(err, ErrWALFailed) {
					t.Fatalf("batch on %q after the failed rollback: %v, want ErrWALFailed", doc, err)
				}
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// (The flaky document's in-memory labels stay damaged until it
			// is rebuilt from its snapshot; its tree is intact.)
			if err := appendTo("other"); err != nil {
				t.Fatalf("batch after the checkpoint: %v", err)
			}
			want := crashStateXML(t, d)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if got := crashStateXML(t, rec); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovery after the checkpoint diverged:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// A commit whose record cannot be appended was never visible and never
// becomes durable: the staged parts are aborted before anyone could see
// them, the leader refuses every further commit with ErrWALFailed, a
// crash image recovers the pre-transaction state, and a Checkpoint
// clears the condition without capturing anything of the failed
// commit. (The append fails because the test closes the leader's log
// behind its back.)
func TestFailedAppendPublishesNothing(t *testing.T) {
	appendTo := func(d *DurableRepository, name, tag string) error {
		_, err := d.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), tag)
			return nil
		})
		return err
	}
	cases := map[string]func(d *DurableRepository) error{
		"Batch": func(d *DurableRepository) error { return appendTo(d, "alpha", "LOST") },
		"MultiBatch": func(d *DurableRepository) error {
			_, err := d.MultiBatch([]string{"alpha", "beta"}, func(m map[string]*MultiDoc) error {
				for _, md := range m {
					md.Batch().AppendChild(md.Document().Root(), "LOST")
				}
				return nil
			})
			return err
		},
	}
	names := []string{"alpha", "beta"}
	type seen struct {
		stamp    uint64
		xml      map[string]string
		versions map[string]uint64
		counters map[string]update.Counters
	}
	look := func(d *DurableRepository) seen {
		t.Helper()
		s := seen{stamp: d.Stamp(), xml: crashStateXML(t, d), versions: map[string]uint64{}, counters: map[string]update.Counters{}}
		for _, name := range names {
			doc, _ := d.repo().Get(name)
			// Verifies and FullVerifies are history, not state: a staged
			// and aborted part did run its verification.
			ctr := doc.Counters()
			ctr.Verifies, ctr.FullVerifies = 0, 0
			s.versions[name], s.counters[name] = doc.Version(), ctr
		}
		snap, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if got := snap.Versions(); !reflect.DeepEqual(got, s.versions) {
			t.Fatalf("a fresh snapshot pins versions %v, the documents are at %v", got, s.versions)
		}
		for _, name := range names {
			doc, err := snap.Document(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := doc.XML(); got != s.xml[name] {
				t.Fatalf("a fresh snapshot of %q reads %s, the live tree %s", name, got, s.xml[name])
			}
		}
		return s
	}
	for name, commit := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := DurableOptions{Repo: Options{RetainVersions: 4}, AutoCheckpointBytes: -1}
			d, err := OpenDurable(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for _, name := range names {
				if err := d.Open(name, mustParse(t, `<r><seed/></r>`), "qed"); err != nil {
					t.Fatal(err)
				}
				if err := appendTo(d, name, "kept"); err != nil {
					t.Fatal(err)
				}
			}
			before := look(d)

			if err := d.log.Close(); err != nil {
				t.Fatal(err)
			}
			if err := commit(d); !errors.Is(err, ErrWALFailed) || !errors.Is(err, wal.ErrClosed) {
				t.Fatalf("commit on a log that cannot append: %v, want wal.ErrClosed under ErrWALFailed", err)
			}
			if after := look(d); !reflect.DeepEqual(after, before) {
				t.Fatalf("the failed commit shows in memory:\n got %+v\nwant %+v", after, before)
			}
			for _, name := range names {
				if err := appendTo(d, name, "refused"); !errors.Is(err, ErrWALFailed) {
					t.Fatalf("batch on %q after the failed append: %v, want ErrWALFailed", name, err)
				}
			}
			if err := d.Open("gamma", mustParse(t, `<g/>`), "qed"); !errors.Is(err, ErrWALFailed) {
				t.Fatalf("open after the failed append: %v, want ErrWALFailed", err)
			}
			if after := look(d); !reflect.DeepEqual(after, before) {
				t.Fatalf("a refused commit shows in memory:\n got %+v\nwant %+v", after, before)
			}
			// A crash now recovers what memory shows.
			assertImageRecovers(t, "crash after the failed append", imageDir(t, dir), 0, before.xml)

			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := appendTo(d, "beta", "later"); err != nil {
				t.Fatalf("batch after the checkpoint: %v", err)
			}
			want := crashStateXML(t, d)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := OpenDurable(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if got := crashStateXML(t, rec); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovery after the checkpoint diverged:\n got %v\nwant %v", got, want)
			}
		})
	}
}
