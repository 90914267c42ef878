package repo

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// snapRepo builds a repository with the named documents, each
// <r><seed/></r> under qed.
func snapRepo(t *testing.T, names ...string) *Repository {
	t.Helper()
	r := New()
	for _, name := range names {
		doc, err := xmltree.ParseString("<r><seed/></r>")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Open(name, doc, "qed"); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// childCount counts the root's children in a snapshot's view of name.
func childCount(t *testing.T, s *Snapshot, name string) int {
	t.Helper()
	doc, err := s.Document(name)
	if err != nil {
		t.Fatal(err)
	}
	return len(doc.Root().Children())
}

func TestSnapshotObservesPinnedStateOnly(t *testing.T) {
	r := snapRepo(t, "a")
	snap, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if got := snap.Versions()["a"]; got != InitialVersionSeq {
		t.Fatalf("fresh document pinned at version %d, want %d", got, InitialVersionSeq)
	}
	if n := childCount(t, snap, "a"); n != 1 {
		t.Fatalf("snapshot sees %d children, want 1", n)
	}

	// Commit after the snapshot: the live doc moves, the snapshot must not.
	if _, err := r.Batch("a", appendTo("late")); err != nil {
		t.Fatal(err)
	}
	if n := childCount(t, snap, "a"); n != 1 {
		t.Fatalf("snapshot moved after a concurrent commit: %d children", n)
	}
	// One Batch is one transaction: the version moves by exactly one.
	if v := mustDoc(t, r, "a").Version(); v != InitialVersionSeq+1 {
		t.Fatalf("live version after one commit = %d, want %d", v, InitialVersionSeq+1)
	}
	// A new snapshot sees the new state under a new version.
	snap2, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer snap2.Close()
	if n := childCount(t, snap2, "a"); n != 2 {
		t.Fatalf("fresh snapshot sees %d children, want 2", n)
	}
	if snap2.Versions()["a"] == snap.Versions()["a"] {
		t.Fatal("distinct states share a version number")
	}
	// The two versions are distinct trees, but they mirror one
	// persistent node for the untouched seed subtree.
	oldDoc, _ := snap.Document("a")
	curDoc, _ := snap2.Document("a")
	if was, is := oldDoc.Root().FirstChild(), curDoc.Root().FirstChild(); was == is || was.Source() != is.Source() {
		t.Fatal("seed subtree recopied: the versions mirror different nodes")
	}
}

func TestSnapshotQueryZeroCopyAndFrozen(t *testing.T) {
	r := snapRepo(t, "a")
	snap, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	nodes, err := snap.Query("a", "//seed")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 {
		t.Fatalf("query returned %d nodes, want 1", len(nodes))
	}
	if !nodes[0].Frozen() {
		t.Fatal("snapshot query result is not frozen")
	}
	if err := nodes[0].AppendChild(xmltree.NewElement("x")); !errors.Is(err, xmltree.ErrFrozen) {
		t.Fatalf("mutating a snapshot node: %v, want ErrFrozen", err)
	}
	// The result is the frozen tree's own node, not a clone.
	doc, _ := snap.Document("a")
	if nodes[0].Parent() != doc.Root() {
		t.Fatal("query result is not the snapshot tree's node")
	}
	// Clone gives a mutable escape hatch.
	if err := nodes[0].Clone().AppendChild(xmltree.NewElement("x")); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCloseSemantics(t *testing.T) {
	r := snapRepo(t, "a", "b")
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names = %v", got)
	}
	if sc, err := snap.Scheme("a"); err != nil || sc != "qed" {
		t.Fatalf("Scheme = %q, %v", sc, err)
	}
	if _, err := snap.Document("zzz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown name: %v", err)
	}
	doc, err := snap.Document("a")
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
	snap.Close() // idempotent
	if _, err := snap.Document("a"); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := snap.Query("a", "//seed"); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("query after close: %v", err)
	}
	// Already-resolved trees stay navigable after close.
	if doc.Root() == nil {
		t.Fatal("tree handed out before Close went away")
	}
	if _, err := r.Snapshot("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot of unknown name: %v", err)
	}
	// A snapshot naming an unknown document fails before it locks
	// anything: a write on either document commits afterwards.
	if _, err := r.Snapshot("a", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf(`Snapshot("a", "missing"): err = %v, want ErrNotFound`, err)
	}
	done := make(chan error, 1)
	go func() {
		for _, name := range []string{"a", "b"} {
			if _, err := r.Batch(name, appendTo("after")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a write after the failed snapshot still waits: a read lock leaked")
	}
}

// TestSnapshotVersionsAndStampsSurviveClose holds Versions to its
// "stays valid after Close" contract: the pinned sequence numbers are
// the same before and after.
func TestSnapshotVersionsAndStampsSurviveClose(t *testing.T) {
	r := snapRepo(t, "a", "b")
	if _, err := r.Batch("b", appendTo("x")); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	versions := snap.Versions()
	if len(versions) != 2 || versions["b"] == versions["a"] {
		t.Fatalf("before Close: versions %v", versions)
	}
	snap.Close()
	if got := snap.Versions(); !reflect.DeepEqual(got, versions) {
		t.Errorf("Versions after Close = %v, want %v", got, versions)
	}
}

// TestSnapshotCloseRacesVersionsAndStamps runs Close beside Versions;
// under -race it fails unless they share the snapshot's lock.
func TestSnapshotCloseRacesVersionsAndStamps(t *testing.T) {
	r := snapRepo(t, "a", "b")
	for i := 0; i < 50; i++ {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			snap.Close()
		}()
		if v := snap.Versions(); len(v) != 2 {
			t.Errorf("beside Close: Versions %v", v)
		}
		<-closed
	}
}

func TestSnapshotSharesMaterialisedTree(t *testing.T) {
	r := snapRepo(t, "a")
	s1, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d1, _ := s1.Document("a")
	d2, _ := s2.Document("a")
	if d1 != d2 {
		t.Fatal("two snapshots of the same version materialised two trees")
	}
	// The scan materialises through the shared view: both snapshots'
	// queries, and navigation, hand out one and the same node.
	n1, err1 := s1.Query("a", "//seed")
	n2, err2 := s2.Query("a", "//seed")
	if err1 != nil || err2 != nil || len(n1) != 1 || len(n2) != 1 {
		t.Fatalf("queries: %v %v, %v %v", n1, err1, n2, err2)
	}
	if n1[0] != n2[0] || n1[0] != d1.Root().FirstChild() {
		t.Fatal("two snapshots of one version returned different nodes for one element")
	}
	if st := r.VersionStats(); st.LiveVersions != 1 || st.PinnedVersions != 1 || st.OpenSnapshots != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotPinsVersionWhileWritersCommit(t *testing.T) {
	r := snapRepo(t, "a")
	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := r.Batch("a", func(_ *xmltree.Document, b *update.Batch) error {
					b.Add(update.AppendChildOp(nil, ""))
					return nil
				})
				_ = err // nil ref: rejected, but exercises the lock path
				_, err = r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
					root := doc.Root()
					b.AppendChild(root, "item")
					if kids := root.Children(); len(kids) > 32 {
						b.Delete(kids[0])
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				commits.Add(1)
			}
		}()
	}
	// Readers: pin a snapshot, read it many times — every read must see
	// the identical state — then close and re-pin. Keep going until the
	// writers have demonstrably committed under our pins.
	for i := 0; i < 20 || commits.Load() < 20; i++ {
		snap, err := r.Snapshot("a")
		if err != nil {
			t.Fatal(err)
		}
		want := childCount(t, snap, "a")
		for j := 0; j < 50; j++ {
			if got := childCount(t, snap, "a"); got != want {
				t.Fatalf("snapshot state changed under reader: %d -> %d", want, got)
			}
		}
		snap.Close()
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotNeverObservesTornMultiBatch moves value between two
// documents inside MultiBatch transactions that conserve the total
// item count; any snapshot observing a partial transaction would see
// the invariant broken.
func TestSnapshotNeverObservesTornMultiBatch(t *testing.T) {
	r := snapRepo(t, "a", "b")
	// Seed each doc with 8 items (plus the <seed/> child already there).
	for _, name := range []string{"a", "b"} {
		_, err := r.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
			for i := 0; i < 8; i++ {
				b.AppendChild(doc.Root(), "item")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	countItems := func(s *Snapshot, name string) int {
		nodes, err := s.Query(name, "//item")
		if err != nil {
			t.Fatal(err)
		}
		return len(nodes)
	}
	const wantTotal = 16
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writer: each transaction deletes one item from one doc and adds
	// one to the other — total conserved only if observed atomically.
	wg.Add(1)
	go func() {
		defer wg.Done()
		from, to := "a", "b"
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := r.MultiBatch([]string{"a", "b"}, func(m map[string]*MultiDoc) error {
				src, dst := m[from], m[to]
				kids := src.Document().Root().Children()
				var victim *xmltree.Node
				for _, k := range kids {
					if k.Name() == "item" {
						victim = k
						break
					}
				}
				if victim == nil {
					return fmt.Errorf("no item to move in %s", from)
				}
				src.Batch().Delete(victim)
				dst.Batch().AppendChild(dst.Document().Root(), "item")
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			from, to = to, from
		}
	}()
	for i := 0; i < 200; i++ {
		snap, err := r.Snapshot("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if got := countItems(snap, "a") + countItems(snap, "b"); got != wantTotal {
			t.Fatalf("snapshot %d observed a torn MultiBatch: total %d, want %d", i, got, wantTotal)
		}
		snap.Close()
	}
	close(stop)
	wg.Wait()
}

func TestVersionGCReclaimsUnpinned(t *testing.T) {
	r := snapRepo(t, "a", "b")
	write := func(name string) {
		t.Helper()
		if _, err := r.Batch(name, appendTo("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: snapshot, write (superseding the pinned version), close
	// (freeing it). Live versions must never exceed one per document.
	for i := 0; i < 50; i++ {
		snap, err := r.Snapshot("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		write("a")
		write("b")
		if st := r.VersionStats(); st.LiveVersions > 4 {
			t.Fatalf("iteration %d: %d live versions", i, st.LiveVersions)
		}
		snap.Close()
	}
	st := r.VersionStats()
	if st.OpenSnapshots != 0 || st.PinnedVersions != 0 {
		t.Fatalf("after closing everything: %+v", st)
	}
	// Everything pinned was superseded and closed, so nothing survives.
	if st.LiveVersions != 0 {
		t.Fatalf("superseded+unpinned versions not reclaimed: %+v", st)
	}

	// A current version stays cached while unpinned (it is what the
	// next snapshot shares)...
	snap, _ := r.Snapshot("a")
	snap.Close()
	if st := r.VersionStats(); st.LiveVersions != 1 {
		t.Fatalf("current version not cached: %+v", st)
	}
	// ...until a commit supersedes it.
	write("a")
	if st := r.VersionStats(); st.LiveVersions != 0 {
		t.Fatalf("superseded cached version not reclaimed: %+v", st)
	}
}

func TestSnapshotSurvivesDrop(t *testing.T) {
	r := snapRepo(t, "a")
	snap, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Drop("a") {
		t.Fatal("drop failed")
	}
	if n := childCount(t, snap, "a"); n != 1 {
		t.Fatalf("snapshot of dropped doc sees %d children", n)
	}
	snap.Close()
	if st := r.VersionStats(); st.LiveVersions != 0 || st.PinnedVersions != 0 || st.OpenSnapshots != 0 {
		t.Fatalf("dropped doc's version leaked: %+v", st)
	}
}

// TestSnapshotRacingDropDoesNotLeakVersion pins a version AFTER the
// document was dropped — the interleaving where Snapshot resolved the
// slot before Drop unlinked it. The version must be born superseded,
// so the last unpin releases its tree and the gauges return to zero.
// A second such pin, after the first was released, must still get the
// dropped document's tree (it got a released version with no tree
// while pins of a dropped slot shared one descriptor).
func TestSnapshotRacingDropDoesNotLeakVersion(t *testing.T) {
	r := snapRepo(t, "a")
	d := mustDoc(t, r, "a")
	if !r.Drop("a") {
		t.Fatal("drop failed")
	}
	// White box: replay Snapshot's per-document steps on the stale
	// slot pointer, as the racing goroutine would.
	d.mu.RLock()
	v := d.pinCurrent()
	tree := v.document()
	d.mu.RUnlock()
	if tree == nil || tree.Root() == nil {
		t.Fatal("pin on a dropped slot returned no tree")
	}
	if st := r.VersionStats(); st.LiveVersions != 1 || st.PinnedVersions != 1 {
		t.Fatalf("mid-pin stats: %+v", st)
	}
	v.unpin()
	if st := r.VersionStats(); st.LiveVersions != 0 || st.PinnedVersions != 0 {
		t.Fatalf("version pinned after Drop leaked: %+v", st)
	}
	d.mu.RLock()
	v = d.pinCurrent()
	d.mu.RUnlock()
	if again := v.document(); again == nil || again.XML() != tree.XML() {
		t.Fatal("a second pin on the dropped slot lost its tree")
	}
	v.unpin()
	if st := r.VersionStats(); st.LiveVersions != 0 || st.PinnedVersions != 0 {
		t.Fatalf("second version pinned after Drop leaked: %+v", st)
	}
}

// TestSnapshotAllToleratesConcurrentDrop: the all-documents form must
// never fail with ErrNotFound just because a document was dropped
// between the listing and the resolution (Save documents the same
// tolerance); explicitly named documents still do.
func TestSnapshotAllToleratesConcurrentDrop(t *testing.T) {
	r := snapRepo(t, "stable", "churn")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Drop("churn")
			doc, err := xmltree.ParseString("<r/>")
			if err != nil {
				t.Error(err)
				return
			}
			if err := r.Open("churn", doc, "qed"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatalf("snapshot-all under drop churn: %v", err)
		}
		if _, err := snap.Document("stable"); err != nil {
			t.Fatal(err)
		}
		snap.Close()
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotAfterRolledBackBatchSeesPreBatchState(t *testing.T) {
	r := snapRepo(t, "a")
	snapBefore, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer snapBefore.Close()
	// A batch whose second op fails: rolled back, document unchanged.
	if _, err := r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "c").SetText(xmltree.NewElement("loose"), "x")
		return nil
	}); err == nil {
		t.Fatal("batch with detached ref committed")
	}
	snapAfter, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer snapAfter.Close()
	if n := childCount(t, snapAfter, "a"); n != 1 {
		t.Fatalf("post-rollback snapshot sees %d children, want 1", n)
	}
}

// A snapshot held open across an aborted transaction and one taken
// after it pin the same version: same Versions entries, one shared
// tree (abortRig and abortForms: abort_test.go).
func TestSnapshotVersionsUnmovedByAbort(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for i, form := range abortForms {
			t.Run(fmt.Sprintf("durable=%v/%s", durable, form.name), func(t *testing.T) {
				rig := newAbortRig(t, durable)
				held, err := rig.mem.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer held.Close()
				mustAbort(t, rig, i)
				after, err := rig.mem.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer after.Close()
				if h, a := held.Versions(), after.Versions(); !reflect.DeepEqual(h, a) {
					t.Errorf("Versions: held across the abort %v, taken after it %v", h, a)
				}
				for _, name := range held.Names() {
					h, _ := held.Document(name)
					a, _ := after.Document(name)
					if h != a {
						t.Errorf("%s: the two snapshots do not share one version tree", name)
					}
				}
			})
		}
	}
}

func TestDurableSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, name := range []string{"a", "b"} {
		doc, err := xmltree.ParseString("<r><seed/></r>")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Open(name, doc, "qed"); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := d.Snapshot("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	// A durable MultiBatch after the snapshot: the snapshot holds.
	if _, err := d.MultiBatch([]string{"a", "b"}, func(m map[string]*MultiDoc) error {
		for _, md := range m {
			md.Batch().AppendChild(md.Document().Root(), "item")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if n := childCount(t, snap, name); n != 1 {
			t.Fatalf("%s: snapshot sees %d children, want 1", name, n)
		}
	}
	live, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for _, name := range []string{"a", "b"} {
		if n := childCount(t, live, name); n != 2 {
			t.Fatalf("%s: fresh snapshot sees %d children, want 2", name, n)
		}
	}
	if st := d.VersionStats(); st.OpenSnapshots != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Checkpoint (commitMu write side) with snapshots open: no
	// interaction, no deadlock.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := childCount(t, snap, "a"); n != 1 {
		t.Fatalf("snapshot moved across a checkpoint: %d", n)
	}
	// A checkpoint pins each dirty version while encoding; once every
	// snapshot is closed the gauges settle at zero — no pin leak.
	snap.Close()
	live.Close()
	if _, err := d.Batch("a", appendTo("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := d.VersionStats(); st.OpenSnapshots != 0 || st.PinnedVersions != 0 {
		t.Fatalf("gauges did not settle after checkpoint: %+v", st)
	}
}

func TestSnapshotConcurrentWithSaveAndMultiBatch(t *testing.T) {
	r := snapRepo(t, "a", "b", "c")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.MultiBatch([]string{"a", "c"}, func(m map[string]*MultiDoc) error {
				for _, md := range m {
					root := md.Document().Root()
					md.Batch().AppendChild(root, "item")
					if kids := root.Children(); len(kids) > 16 {
						md.Batch().Delete(kids[0])
					}
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := r.Save(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range snap.Names() {
			if _, err := snap.Query(name, "//item"); err != nil {
				t.Fatal(err)
			}
		}
		snap.Close()
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotScansRaceNavigatorsAndWriter puts the three kinds of
// reader of one pinned version side by side — scans that materialise
// nothing but their matches, queries whose matches sit on different
// paths (so the same sibling lists are expanded from several sides),
// and Document() navigators that expand everything — while a writer
// commits the following versions and pins each, which publishes it.
// Every reader must see the pinned state and every path must resolve to
// one node per element. Run with -race: the scan reads persistent nodes
// a publication may be sharing, and materialises through expand()
// beside the navigators.
func TestSnapshotScansRaceNavigatorsAndWriter(t *testing.T) {
	r := New()
	doc, err := xmltree.ParseString(sectionsXML(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Open("a", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var wantXML string
	var wantLabelled int
	if err := r.View("a", func(s *update.Session) error {
		wantXML, wantLabelled = s.Document().XML(), s.Document().LabelledCount()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, err := r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
				if root := doc.Root(); i%2 == 0 {
					b.AppendChild(root, "item")
				} else {
					b.Delete(root.LastChild())
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			next, err := r.Snapshot("a")
			if err != nil {
				t.Error(err)
				return
			}
			next.Close()
		}
	}()

	var seen sync.Map // address of an element in the version -> its one view node
	record := func(nodes []*xmltree.Node) {
		for _, n := range nodes {
			var addr []int
			for m := n; m.Parent() != nil; m = m.Parent() {
				addr = append(addr, m.Index())
			}
			if prev, loaded := seen.LoadOrStore(fmt.Sprint(addr), n); loaded && prev != n {
				t.Errorf("element %v of one version has two view nodes", addr)
			}
		}
	}
	var readers sync.WaitGroup
	for g := 0; g < 9; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 30; i++ {
				switch g % 3 {
				case 0: // scanner
					items, err := snap.Query("a", "//item")
					if err != nil || len(items) != 4 {
						t.Errorf("//item on the pinned version: %d nodes, %v", len(items), err)
						return
					}
					record(items)
					all, err := snap.Query("a", "//*")
					attrs, err2 := snap.Query("a", "//@*")
					if err != nil || err2 != nil || len(all)+len(attrs) != wantLabelled {
						t.Errorf("//* and //@* found %d+%d nodes, want %d (%v, %v)", len(all), len(attrs), wantLabelled, err, err2)
						return
					}
				case 1: // path materialiser
					nodes, err := snap.Query("a", fmt.Sprintf("//e%d", 1+(g*31+i*7)%200))
					if err != nil {
						t.Error(err)
						return
					}
					record(nodes)
				default: // navigator
					view, err := snap.Document("a")
					if err != nil {
						t.Error(err)
						return
					}
					if i%2 == 0 && view.XML() != wantXML {
						t.Error("navigator serialised a state other than the pinned one")
						return
					}
					n := 0
					view.WalkLabelled(func(m *xmltree.Node) bool {
						if m.Parent() == nil {
							t.Error("walked node has no parent")
						}
						n++
						return true
					})
					if n != wantLabelled {
						t.Errorf("navigator walked %d labelled nodes, want %d", n, wantLabelled)
						return
					}
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestPinPublicationRacesReadersAndWriter: a version is published by
// the first pin of its state, under the document's read lock — beside
// QueryFunc readers of the live tree and other pinners, serialised only
// by the document's vmu. Four pinners, two QueryFunc readers and a
// writer run on one document; every snapshot must read exactly the
// state committed at the sequence it pinned, and each pinner's
// sequences never go back. Run with -race: publication writes the live
// nodes' shadows while the readers walk the same nodes.
func TestPinPublicationRacesReadersAndWriter(t *testing.T) {
	const commits = 200
	r := New()
	if err := r.Open("a", mustParse(t, "<r><s><t/></s><s><t/></s><s><t/></s></r>"), "qed"); err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]string{} // the writer's: sequence -> XML
	state := func() {
		if err := r.View("a", func(s *update.Session) error {
			committed[mustDoc(t, r, "a").Version()] = s.Document().XML()
			return nil
		}); err != nil {
			t.Error(err)
		}
	}
	state()
	type pinned struct {
		seq uint64
		xml string
	}
	seen := make([][]pinned, 4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap, err := r.Snapshot("a")
				if err != nil {
					t.Error(err)
					return
				}
				doc, err := snap.Document("a")
				if err != nil {
					t.Error(err)
					return
				}
				seen[p] = append(seen[p], pinned{snap.Versions()["a"], doc.XML()})
				snap.Close()
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := r.QueryFunc("a", "//t", func(nodes []*xmltree.Node) error {
					for _, n := range nodes {
						if n.Parent().Name() != "s" {
							return fmt.Errorf("<t> under <%s>", n.Parent().Name())
						}
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := range commits {
		if _, err := r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
			// Grow one section's <t> by a child, or empty it again:
			// each commit changes a spine three deep.
			t := doc.Root().Children()[i%3].FirstChild()
			if kids := t.Children(); len(kids) < 4 {
				b.AppendChild(t, "u")
			} else {
				for _, k := range kids {
					b.Delete(k)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		state()
	}
	close(done)
	wg.Wait()
	last, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	doc, err := last.Document("a")
	if err != nil {
		t.Fatal(err)
	}
	seen = append(seen, []pinned{{last.Versions()["a"], doc.XML()}})
	if got := seen[len(seen)-1][0].seq; got != InitialVersionSeq+commits {
		t.Fatalf("a pin after the last commit is at sequence %d, want %d", got, InitialVersionSeq+commits)
	}
	for p, pins := range seen {
		for i, got := range pins {
			if i > 0 && got.seq < pins[i-1].seq {
				t.Fatalf("pinner %d: sequence %d after %d", p, got.seq, pins[i-1].seq)
			}
			if want, ok := committed[got.seq]; !ok || got.xml != want {
				t.Fatalf("pinner %d: the snapshot at sequence %d reads\n %s\nthe state committed there is\n %s", p, got.seq, got.xml, want)
			}
		}
	}
}
