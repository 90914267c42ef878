package repo

import (
	"errors"
	"reflect"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/labeling"
	"xmldyn/internal/update"
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
