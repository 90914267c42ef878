package repo

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// travelRepo builds a retain-window repository with one "a" document
// and returns it with a helper that appends one child and returns the
// stamp of the resulting state.
func travelRepo(t *testing.T, retain int) (*Repository, func(tag string) uint64) {
	t.Helper()
	r := New(Options{RetainVersions: retain})
	doc, err := xmltree.ParseString("<r><seed/></r>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("a", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	write := func(tag string) uint64 {
		t.Helper()
		if err := r.Update("a", func(s *update.Session) error {
			_, err := s.AppendChild(s.Document().Root(), tag)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return r.Stamp()
	}
	return r, write
}

// rootChildren lists the root's child names in a snapshot's view.
func rootChildren(t *testing.T, s *Snapshot, name string) []string {
	t.Helper()
	doc, err := s.Document(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, c := range doc.Root().Children() {
		out = append(out, c.Name())
	}
	return out
}

// TestSnapshotAtReadsHistoricalStates: each retained stamp resolves to
// exactly the state committed at that stamp.
func TestSnapshotAtReadsHistoricalStates(t *testing.T) {
	r, write := travelRepo(t, 8)
	openStamp := r.Stamp()
	var stamps []uint64
	for i := 0; i < 4; i++ {
		stamps = append(stamps, write(fmt.Sprintf("c%d", i)))
	}

	// The opened state (just <seed/>) is retained too.
	snap, err := r.SnapshotAt(openStamp)
	if err != nil {
		t.Fatal(err)
	}
	if got := rootChildren(t, snap, "a"); len(got) != 1 || got[0] != "seed" {
		t.Fatalf("opened-state view: %v", got)
	}
	snap.Close()

	for i, stamp := range stamps {
		snap, err := r.SnapshotAt(stamp)
		if err != nil {
			t.Fatalf("stamp %d: %v", stamp, err)
		}
		got := rootChildren(t, snap, "a")
		if len(got) != i+2 || got[len(got)-1] != fmt.Sprintf("c%d", i) {
			t.Fatalf("stamp %d: view %v", stamp, got)
		}
		snap.Close()
	}

	// A stamp at or past the current one resolves to the live state.
	snap, err = r.SnapshotAt(r.Stamp() + 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := rootChildren(t, snap, "a"); len(got) != 5 {
		t.Fatalf("future stamp does not see current state: %v", got)
	}
	snap.Close()
}

// TestSnapshotAtWindowEviction: the retained window is bounded; stamps
// older than it fail with ErrVersionEvicted, and the RetainedVersions
// gauge tracks the bound.
func TestSnapshotAtWindowEviction(t *testing.T) {
	const retain = 3
	r, write := travelRepo(t, retain)
	openStamp := r.Stamp()
	var stamps []uint64
	for i := 0; i < 10; i++ {
		stamps = append(stamps, write(fmt.Sprintf("c%d", i)))
	}
	st := r.VersionStats()
	if st.RetainedVersions != retain {
		t.Fatalf("RetainedVersions = %d, want %d", st.RetainedVersions, retain)
	}
	// Aged-out window entries must release their roots: with no open
	// snapshots the only live versions are the retained ones, however
	// many commits have churned past the window.
	if st.LiveVersions != retain {
		t.Fatalf("LiveVersions = %d, want %d (aged-out versions must release)", st.LiveVersions, retain)
	}
	if _, err := r.SnapshotAt(openStamp); !errors.Is(err, ErrVersionEvicted) {
		t.Fatalf("evicted opened state: err = %v", err)
	}
	if _, err := r.SnapshotAt(stamps[2]); !errors.Is(err, ErrVersionEvicted) {
		t.Fatalf("evicted stamp: err = %v", err)
	}
	// The youngest retained stamps still resolve.
	for _, stamp := range stamps[len(stamps)-retain:] {
		snap, err := r.SnapshotAt(stamp)
		if err != nil {
			t.Fatalf("retained stamp %d: %v", stamp, err)
		}
		snap.Close()
	}
}

// TestSnapshotAtZeroRetention: with the default RetainVersions of 0,
// SnapshotAt reaches only the current state.
func TestSnapshotAtZeroRetention(t *testing.T) {
	r, write := travelRepo(t, 0)
	old := write("c0")
	write("c1")
	snap, err := r.SnapshotAt(r.Stamp())
	if err != nil {
		t.Fatal(err)
	}
	if got := rootChildren(t, snap, "a"); len(got) != 3 {
		t.Fatalf("current view: %v", got)
	}
	snap.Close()
	if _, err := r.SnapshotAt(old); !errors.Is(err, ErrVersionEvicted) {
		t.Fatalf("zero-retention historical read: err = %v", err)
	}
	if st := r.VersionStats(); st.RetainedVersions != 0 {
		t.Fatalf("RetainedVersions = %d, want 0", st.RetainedVersions)
	}
}

// TestSnapshotStampsRoundTrip: the stamps a Snapshot reports resolve
// back, via SnapshotAt, to the same versions.
func TestSnapshotStampsRoundTrip(t *testing.T) {
	r, write := travelRepo(t, 4)
	write("c0")
	snap, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	stamp := snap.Stamps()["a"]
	write("c1")
	write("c2")

	back, err := r.SnapshotAt(stamp, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Versions()["a"], snap.Versions()["a"]; got != want {
		t.Fatalf("round-trip pinned version %d, want %d", got, want)
	}
	d1, _ := snap.Document("a")
	d2, _ := back.Document("a")
	if d1 != d2 {
		t.Fatal("round-trip did not share the pinned version's tree")
	}
	back.Close()
	snap.Close()
}

// TestSnapshotAtGaugesReturnToZero: retained versions release on drop
// and the gauges settle after snapshots close.
func TestSnapshotAtGaugesReturnToZero(t *testing.T) {
	r, write := travelRepo(t, 4)
	stamp := write("c0")
	write("c1")
	snap, err := r.SnapshotAt(stamp)
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
	if !r.Drop("a") {
		t.Fatal("drop failed")
	}
	st := r.VersionStats()
	if st.RetainedVersions != 0 || st.PinnedVersions != 0 || st.OpenSnapshots != 0 || st.LiveVersions != 0 {
		t.Fatalf("gauges after drop: %+v", st)
	}
}

// TestSnapshotAtSharedStructure: a retained version and the live tree
// share untouched subtrees (pointer identity through snapshots of
// both), which is what makes the window cheap.
func TestSnapshotAtSharedStructure(t *testing.T) {
	r, write := travelRepo(t, 4)
	stamp := write("c0")
	write("c1")

	old, err := r.SnapshotAt(stamp)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	cur, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	oldDoc, _ := old.Document("a")
	curDoc, _ := cur.Document("a")
	if got := len(oldDoc.Root().Children()); got != 2 {
		t.Fatalf("old view children: %d", got)
	}
	if got := len(curDoc.Root().Children()); got != 3 {
		t.Fatalf("current view children: %d", got)
	}
	// The views are distinct trees, but the persistent nodes under
	// them share birth sequences for untouched subtrees: the seed child
	// was born at publication of the opened state in both.
	ob := oldDoc.Root().Children()[0].BirthSeq()
	cb := curDoc.Root().Children()[0].BirthSeq()
	if ob != cb {
		t.Fatalf("seed subtree recopied: birth %d vs %d", ob, cb)
	}
}

// TestDurableSnapshotAt: the knob and the read path work through the
// durable facade; the window resets on recovery.
func TestDurableSnapshotAt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	dr, err := OpenDurable(dir, DurableOptions{Repo: Options{RetainVersions: 4}})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString("<r><seed/></r>")
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.Open("a", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	stamp := dr.Stamp()
	if _, err := dr.Batch("a", func(d *xmltree.Document, b *update.Batch) error {
		b.AppendChild(d.Root(), "late")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := dr.SnapshotAt(stamp)
	if err != nil {
		t.Fatal(err)
	}
	if got := rootChildren(t, snap, "a"); len(got) != 1 {
		t.Fatalf("durable historical view: %v", got)
	}
	snap.Close()
	if err := dr.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery starts a fresh window: the pre-restart stamp is gone.
	dr2, err := OpenDurable(dir, DurableOptions{Repo: Options{RetainVersions: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer dr2.Close()
	snap2, err := dr2.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := rootChildren(t, snap2, "a"); len(got) != 2 {
		t.Fatalf("recovered live view: %v", got)
	}
	snap2.Close()
}

// TestRecoveryEvictsPreCrashStamps is the regression guard for the
// recovery/time-travel interaction fixed alongside incremental
// checkpoints: recovery replays the log with retention suppressed
// (replayed intermediate states are not observable history — see
// docs/CONCURRENCY.md), so a stamp captured before the crash must
// answer ErrVersionEvicted after it, no matter how large the retention
// window is. Before the fix, replay filled the window with
// intermediate versions and a pre-crash stamp could silently read a
// state no snapshot had ever been able to observe.
func TestRecoveryEvictsPreCrashStamps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	opts := DurableOptions{AutoCheckpointBytes: -1, Repo: Options{RetainVersions: 1024}}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString("<r><seed/></r>")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Open("a", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	var preCrash uint64
	for i := 0; i < 10; i++ {
		if i == 3 {
			preCrash = d.Stamp() // mid-history: strictly older than the final state
		}
		if _, err := d.Batch("a", func(dd *xmltree.Document, b *update.Batch) error {
			b.AppendChild(dd.Root(), "c")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if snap, err := d.SnapshotAt(preCrash); err != nil {
		t.Fatalf("pre-crash stamp unreadable before the crash: %v", err)
	} else {
		if got := rootChildren(t, snap, "a"); len(got) != 4 {
			t.Fatalf("pre-crash view: %v", got)
		}
		snap.Close()
	}
	// Crash: no Close. Per-commit sync (the default) makes every batch
	// durable, so recovery replays all ten.
	rec, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if _, err := rec.SnapshotAt(preCrash); !errors.Is(err, ErrVersionEvicted) {
		t.Fatalf("pre-crash stamp after recovery: err = %v, want ErrVersionEvicted", err)
	}
	// A fresh commit starts retaining again — but only post-recovery
	// versions: the pre-crash stamp stays evicted.
	if _, err := rec.Batch("a", func(dd *xmltree.Document, b *update.Batch) error {
		b.AppendChild(dd.Root(), "after")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.SnapshotAt(preCrash); !errors.Is(err, ErrVersionEvicted) {
		t.Fatalf("pre-crash stamp after post-recovery commit: err = %v, want ErrVersionEvicted", err)
	}
	// The recovered clock itself works: a current-stamp read sees the
	// replayed state (seed + 10 appends + 1 post-recovery append).
	snap, err := rec.SnapshotAt(rec.Stamp())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if got := rootChildren(t, snap, "a"); len(got) != 12 {
		t.Fatalf("current view after recovery: %d children %v", len(got), got)
	}
}

// --- aborted transactions ------------------------------------------------------
//
// An abort publishes nothing: every reader-visible quantity — versions,
// stamps, the retained window, counters, checkpoint dirtiness — counts
// committed transactions only. The rig and the three abort forms below
// are shared with snapshot_test.go and incremental_test.go.

// abortRig is a repository of either flavour holding "alpha" (qed,
// <a><seed/></a>) and "beta" (lsdx, walked to the brink of its label
// collision), with the two commit entry points the aborts go through.
type abortRig struct {
	mem   *Repository
	dur   *DurableRepository // nil for the in-memory flavour
	dir   string
	multi func([]string, func(map[string]*MultiDoc) error) (map[string]*update.BatchResult, error)
	batch func(name string, build func(*xmltree.Document, *update.Batch)) error
	// brink is the next step of lsdxStep on beta: the one that collides.
	brink int
}

// lsdxStep queues step i of the walk that drives lsdx into its
// documented collision: inserts alternating before and after the newest
// node.
func lsdxStep(doc *xmltree.Document, b *update.Batch, i int) {
	ref := doc.FindElement("y")
	if i > 0 {
		ref = doc.FindElement(fmt.Sprintf("n%d", i-1))
	}
	if name := fmt.Sprintf("n%d", i); i%2 == 0 {
		b.InsertBefore(ref, name)
	} else {
		b.InsertAfter(ref, name)
	}
}

func newAbortRig(t *testing.T, durable bool, retain int) *abortRig {
	t.Helper()
	rig := &abortRig{}
	open := func(name, xml, scheme string) {
		t.Helper()
		var err error
		if durable {
			err = rig.dur.Open(name, mustParse(t, xml), scheme)
		} else {
			_, err = rig.mem.Open(name, mustParse(t, xml), scheme)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if durable {
		rig.dir = t.TempDir()
		d, err := OpenDurable(rig.dir, DurableOptions{Repo: Options{RetainVersions: retain}, AutoCheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		rig.dur, rig.mem, rig.multi = d, d.repo(), d.MultiBatch
		rig.batch = func(name string, build func(*xmltree.Document, *update.Batch)) error {
			_, err := d.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
				build(doc, b)
				return nil
			})
			return err
		}
	} else {
		r := New(Options{RetainVersions: retain})
		rig.mem, rig.multi = r, r.MultiBatch
		rig.batch = func(name string, build func(*xmltree.Document, *update.Batch)) error {
			d, _ := r.Get(name)
			b := d.sess.Batch()
			build(d.sess.Document(), b)
			_, err := r.Batch(name, b.Ops())
			return err
		}
	}
	open("alpha", `<a><seed/></a>`, "qed")
	open("beta", `<b><x/><y/></b>`, "lsdx")
	// Find the colliding step on a bare session, then walk beta up to it.
	s, err := update.NewSession(mustParse(t, `<b><x/><y/></b>`), core.MustScheme("lsdx").Factory())
	if err != nil {
		t.Fatal(err)
	}
	s.SetAutoVerify(true)
	for ; ; rig.brink++ {
		if rig.brink == 2000 {
			t.Fatal("lsdx never collided")
		}
		b := s.Batch()
		lsdxStep(s.Document(), b, rig.brink)
		if _, err := b.Commit(); err != nil {
			break
		}
	}
	for i := 0; i < rig.brink; i++ {
		if err := rig.batch("beta", func(doc *xmltree.Document, b *update.Batch) { lsdxStep(doc, b, i) }); err != nil {
			t.Fatalf("walk step %d of %d: %v", i, rig.brink, err)
		}
	}
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
	// alpha stages cleanly, then beta applies and fails verification.
	{"multibatch-verification", func(rig *abortRig) error {
		_, err := rig.multi([]string{"alpha", "beta"}, func(m map[string]*MultiDoc) error {
			m["alpha"].Batch().AppendChild(m["alpha"].Document().Root(), "ABORTED")
			lsdxStep(m["beta"].Document(), m["beta"].Batch(), rig.brink)
			return nil
		})
		return err
	}, "document order violated"},
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

// observed is what readers can learn about the committed history of
// alpha and beta.
type observed struct {
	stamp    uint64
	retained int64
	logSize  int64
	version  map[string]uint64
	counters map[string]update.Counters
	// views: stamp → name → the XML SnapshotAt serves there, for every
	// stamp the retained window still reaches.
	views map[uint64]map[string]string
}

func (rig *abortRig) viewAt(t *testing.T, stamp uint64, name string) (string, bool) {
	t.Helper()
	snap, err := rig.mem.SnapshotAt(stamp, name)
	if errors.Is(err, ErrVersionEvicted) {
		return "", false
	}
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	doc, err := snap.Document(name)
	if err != nil {
		t.Fatal(err)
	}
	return doc.XML(), true
}

func (rig *abortRig) observe(t *testing.T) observed {
	t.Helper()
	o := observed{stamp: rig.mem.Stamp(), retained: rig.mem.VersionStats().RetainedVersions,
		version: map[string]uint64{}, counters: map[string]update.Counters{}, views: map[uint64]map[string]string{}}
	if rig.dur != nil {
		o.logSize, _ = rig.dur.LogSize()
	}
	for _, name := range []string{"alpha", "beta"} {
		d, _ := rig.mem.Get(name)
		o.version[name], o.counters[name] = d.Version(), d.Counters()
		for s := uint64(1); s <= o.stamp; s++ {
			if xml, ok := rig.viewAt(t, s, name); ok {
				if o.views[s] == nil {
					o.views[s] = map[string]string{}
				}
				o.views[s][name] = xml
			}
		}
	}
	return o
}

// assertUnmoved: nothing a reader can observe differs from before.
func (rig *abortRig) assertUnmoved(t *testing.T, label string, before observed) {
	t.Helper()
	now := rig.observe(t)
	if now.stamp != before.stamp {
		t.Errorf("%s: Stamp() %d -> %d", label, before.stamp, now.stamp)
	}
	if now.retained != before.retained {
		t.Errorf("%s: RetainedVersions %d -> %d", label, before.retained, now.retained)
	}
	if now.logSize != before.logSize {
		t.Errorf("%s: log grew %d -> %d bytes", label, before.logSize, now.logSize)
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
		if got := repoXML(t, rig.mem, name); got != before.views[before.stamp][name] {
			t.Errorf("%s: %s live tree\n got %s\nwant %s", label, name, got, before.views[before.stamp][name])
		}
		// No stamp from the pre-transaction one on serves anything but
		// the pre-transaction state.
		for s := before.stamp; s <= now.stamp; s++ {
			if got := now.views[s][name]; got != before.views[before.stamp][name] {
				t.Errorf("%s: SnapshotAt(%d, %q)\n got %s\nwant %s", label, s, name, got, before.views[before.stamp][name])
			}
		}
	}
	// Every historical state that was readable still is, unchanged.
	for s, docs := range before.views {
		for name, want := range docs {
			if got, ok := now.views[s][name]; !ok {
				t.Errorf("%s: SnapshotAt(%d, %q) was evicted", label, s, name)
			} else if got != want {
				t.Errorf("%s: SnapshotAt(%d, %q) changed\n got %s\nwant %s", label, s, name, got, want)
			}
		}
	}
}

// TestAbortPublishesNothing: after an aborted MultiBatch (failing at
// validation or at verification, with an earlier document already
// staged) and after an aborted Batch (failing at apply time), on either
// repository flavour, Doc.Version, Stamp, the retained window, the
// counters and every SnapshotAt view are what they were — and repeated
// aborts evict nothing from a window of two.
func TestAbortPublishesNothing(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for i, form := range abortForms {
			t.Run(fmt.Sprintf("durable=%v/%s", durable, form.name), func(t *testing.T) {
				rig := newAbortRig(t, durable, 8)
				before := rig.observe(t)
				mustAbort(t, rig, i)
				rig.assertUnmoved(t, form.name, before)
			})
		}
		t.Run(fmt.Sprintf("durable=%v/window-of-two", durable), func(t *testing.T) {
			rig := newAbortRig(t, durable, 2)
			// alpha: the opened state and one commit retained, a second
			// commit current. The window is full.
			for _, tag := range []string{"c1", "c2"} {
				if err := rig.batch("alpha", func(doc *xmltree.Document, b *update.Batch) { b.AppendChild(doc.Root(), tag) }); err != nil {
					t.Fatal(err)
				}
			}
			before := rig.observe(t)
			if _, ok := before.views[1]["alpha"]; !ok {
				t.Fatal("setup: alpha's opened state is not in the window")
			}
			for round := 0; round < 3; round++ {
				for i := range abortForms {
					mustAbort(t, rig, i)
				}
			}
			rig.assertUnmoved(t, "nine aborts", before)
		})
	}
}
