package repo

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// --- aborted transactions ------------------------------------------------------
//
// An abort publishes nothing: every reader-visible quantity — versions,
// counters, snapshots, checkpoint dirtiness — counts committed
// transactions only. The rig and the three abort forms below
// are shared with snapshot_test.go and incremental_test.go.

// abortRig is a repository of either flavour holding "alpha" (qed,
// <a><seed/></a>) and "beta" (deweyid, <b><x/><y/></b>), with the two
// commit entry points the aborts go through.
type abortRig struct {
	mem   *Repository
	dur   *DurableRepository // nil for the in-memory flavour
	dir   string
	multi func([]string, func(map[string]*MultiDoc) error) (int, error)
	batch func(name string, build func(*xmltree.Document, *update.Batch)) error
}

func newAbortRig(t *testing.T, durable bool) *abortRig {
	t.Helper()
	rig := &abortRig{}
	var (
		openDoc func(string, *xmltree.Document, string) error
		batch   func(string, func(*xmltree.Document, *update.Batch) error) (int, error)
	)
	if durable {
		rig.dir = t.TempDir()
		d, err := OpenDurable(rig.dir, DurableOptions{AutoCheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		rig.dur, rig.mem, rig.multi, openDoc, batch = d, d.repo(), d.MultiBatch, d.Open, d.Batch
	} else {
		r := New()
		rig.mem, rig.multi, openDoc, batch = r, r.MultiBatch, r.Open, r.Batch
	}
	rig.batch = func(name string, build func(*xmltree.Document, *update.Batch)) error {
		_, err := batch(name, func(doc *xmltree.Document, b *update.Batch) error {
			build(doc, b)
			return nil
		})
		return err
	}
	open := func(name, xml, scheme string) {
		t.Helper()
		if err := openDoc(name, mustParse(t, xml), scheme); err != nil {
			t.Fatal(err)
		}
	}
	open("alpha", `<a><seed/></a>`, "qed")
	open("beta", `<b><x/><y/></b>`, "deweyid")
	return rig
}

// abortForms are transactions that mutate a tree and then fail, each at
// a different moment of the stage.
var abortForms = []struct {
	name string
	run  func(rig *abortRig) error
	want string // a substring of the error
}{
	// alpha stages cleanly, then beta fails validation.
	{"multibatch-validation", func(rig *abortRig) error {
		_, err := rig.multi([]string{"alpha", "beta"}, func(m map[string]*MultiDoc) error {
			m["alpha"].Batch().AppendChild(m["alpha"].Document().Root(), "ABORTED")
			m["beta"].Batch().AppendChild(m["beta"].Document().Root(), "ABORTED")
			m["beta"].Batch().InsertBefore(m["beta"].Document().Root(), "second-root")
			return nil
		})
		return err
	}, update.ErrRootSibling.Error()},
	// alpha stages cleanly, then beta passes validation, applies its
	// first ops and fails on a later one that names a node an earlier
	// one deleted.
	{"multibatch-verification", func(rig *abortRig) error {
		_, err := rig.multi([]string{"alpha", "beta"}, func(m map[string]*MultiDoc) error {
			m["alpha"].Batch().AppendChild(m["alpha"].Document().Root(), "ABORTED")
			x := m["beta"].Document().FindElement("x")
			m["beta"].Batch().AppendChild(m["beta"].Document().Root(), "ABORTED").Delete(x).InsertAfter(x, "z")
			return nil
		})
		return err
	}, update.ErrDetachedRef.Error()},
	// The delete applies, the insert beside the deleted node fails.
	{"batch-apply", func(rig *abortRig) error {
		return rig.batch("alpha", func(doc *xmltree.Document, b *update.Batch) {
			n := doc.Root().FirstChild()
			b.AppendChild(doc.Root(), "ABORTED").Delete(n).InsertAfter(n, "x")
		})
	}, update.ErrDetachedRef.Error()},
}

// mustAbort runs one abort form and checks that it failed the way it is
// meant to.
func mustAbort(t *testing.T, rig *abortRig, i int) {
	t.Helper()
	form := abortForms[i]
	if err := form.run(rig); err == nil || !strings.Contains(err.Error(), form.want) {
		t.Fatalf("%s: %v, want an error holding %q", form.name, err, form.want)
	}
}

// observed is what readers can learn about the committed state of
// alpha and beta.
type observed struct {
	logSize  int64
	version  map[string]uint64
	counters map[string]update.Counters
	live     map[string]string // the live tree's XML
	// pinned and views are what a fresh Snapshot pins: each document's
	// version and the XML it serves there.
	pinned map[string]uint64
	views  map[string]string
}

func (rig *abortRig) observe(t *testing.T) observed {
	t.Helper()
	o := observed{version: map[string]uint64{}, counters: map[string]update.Counters{},
		live: map[string]string{}, views: map[string]string{}}
	if rig.dur != nil {
		o.logSize, _ = rig.dur.LogSize()
	}
	snap, err := rig.mem.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	o.pinned = snap.Versions()
	for _, name := range []string{"alpha", "beta"} {
		o.version[name], o.counters[name] = mustDoc(t, rig.mem, name).Version(), counters(t, rig.mem, name)
		o.live[name] = repoXML(t, rig.mem, name)
		doc, err := snap.Document(name)
		if err != nil {
			t.Fatal(err)
		}
		o.views[name] = doc.XML()
	}
	return o
}

// assertUnmoved: nothing a reader can observe differs from before.
func (rig *abortRig) assertUnmoved(t *testing.T, label string, before observed) {
	t.Helper()
	now := rig.observe(t)
	if now.logSize != before.logSize {
		t.Errorf("%s: log grew %d -> %d bytes", label, before.logSize, now.logSize)
	}
	if !reflect.DeepEqual(now.pinned, before.pinned) {
		t.Errorf("%s: a fresh snapshot pins versions %v, before %v", label, now.pinned, before.pinned)
	}
	for name, was := range before.version {
		if now.version[name] != was {
			t.Errorf("%s: %s Doc.Version %d -> %d", label, name, was, now.version[name])
		}
		got, want := now.counters[name], before.counters[name]
		got.Verifies, got.FullVerifies = want.Verifies, want.FullVerifies
		if got != want {
			t.Errorf("%s: %s counters %+v -> %+v", label, name, want, got)
		}
		if got := now.live[name]; got != before.live[name] {
			t.Errorf("%s: %s live tree\n got %s\nwant %s", label, name, got, before.live[name])
		}
		if got := now.views[name]; got != before.views[name] {
			t.Errorf("%s: a fresh snapshot of %s\n got %s\nwant %s", label, name, got, before.views[name])
		}
	}
}

// TestAbortPublishesNothing: after an aborted MultiBatch (failing at
// validation or at verification, with an earlier document already
// staged) and after an aborted Batch (failing at apply time), on either
// repository flavour, Doc.Version, the counters, the live trees, the log
// and a fresh snapshot's versions and trees are what they were.
func TestAbortPublishesNothing(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for i, form := range abortForms {
			t.Run(fmt.Sprintf("durable=%v/%s", durable, form.name), func(t *testing.T) {
				rig := newAbortRig(t, durable)
				before := rig.observe(t)
				mustAbort(t, rig, i)
				rig.assertUnmoved(t, form.name, before)
			})
		}
	}
}
