package repo

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// repoXML captures a document's serialised tree from an in-memory
// repository.
func repoXML(t *testing.T, r *Repository, name string) string {
	t.Helper()
	var out string
	err := r.View(name, func(s *update.Session) error {
		out = s.Document().XML()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// openPair opens two small documents under different schemes.
func openPair(t *testing.T, r *Repository) {
	t.Helper()
	for _, d := range []struct{ name, xml, scheme string }{
		{"alpha", `<a><seed/></a>`, "qed"},
		{"beta", `<b><seed/></b>`, "deweyid"},
	} {
		doc, err := xmltree.ParseString(d.xml)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Open(d.name, doc, d.scheme); err != nil {
			t.Fatal(err)
		}
	}
}

// A MultiBatch commits ops on every involved document as one
// transaction, returns per-document results, and leaves every
// document order-verified.
func TestMultiBatchCommits(t *testing.T) {
	r := New(Options{})
	openPair(t, r)
	res, err := r.MultiBatch([]string{"beta", "alpha", "beta"}, func(m map[string]*MultiDoc) error {
		if len(m) != 2 {
			return fmt.Errorf("got %d handles, want 2 (deduplicated)", len(m))
		}
		a, b := m["alpha"], m["beta"]
		a.Batch().AppendChild(a.Document().Root(), "fromA").
			SetAttr(a.Document().Root(), "touched", "yes")
		b.Batch().AppendChild(b.Document().Root(), "fromB")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results for %d documents, want 2", len(res))
	}
	if n := res["alpha"].New[0]; n == nil || n.Name() != "fromA" {
		t.Fatalf("alpha result: %v", res["alpha"].New)
	}
	if got := repoXML(t, r, "alpha"); got != `<a touched="yes"><seed/><fromA/></a>` {
		t.Fatalf("alpha = %s", got)
	}
	if got := repoXML(t, r, "beta"); got != `<b><seed/><fromB/></b>` {
		t.Fatalf("beta = %s", got)
	}
	for _, name := range []string{"alpha", "beta"} {
		d, _ := r.Get(name)
		if err := d.Verify(); err != nil {
			t.Fatalf("%s order: %v", name, err)
		}
	}
}

// If a later document's batch fails, every earlier document must be
// rolled back: the transaction commits everywhere or nowhere.
func TestMultiBatchRollsBackAllOnFailure(t *testing.T) {
	r := New(Options{})
	openPair(t, r)
	beforeA, beforeB := repoXML(t, r, "alpha"), repoXML(t, r, "beta")
	var alphaCtr update.Counters
	da, _ := r.Get("alpha")
	alphaCtr = da.Counters()

	_, err := r.MultiBatch([]string{"alpha", "beta"}, func(m map[string]*MultiDoc) error {
		a, b := m["alpha"], m["beta"]
		// alpha sorts first and applies cleanly...
		a.Batch().AppendChild(a.Document().Root(), "ok")
		// ...then beta fails validation (detached delete target), which
		// must undo alpha's committed batch.
		b.Batch().AppendChild(b.Document().Root(), "alsoOK")
		b.Batch().Delete(xmltree.NewElement("detached"))
		return nil
	})
	if err == nil {
		t.Fatal("failing multibatch committed")
	}
	if got := repoXML(t, r, "alpha"); got != beforeA {
		t.Fatalf("alpha not rolled back:\n got %s\nwant %s", got, beforeA)
	}
	if got := repoXML(t, r, "beta"); got != beforeB {
		t.Fatalf("beta not rolled back:\n got %s\nwant %s", got, beforeB)
	}
	gotCtr := da.Counters()
	// The verify that ran before the rollback is history, not state.
	alphaCtr.Verifies, alphaCtr.FullVerifies = gotCtr.Verifies, gotCtr.FullVerifies
	if gotCtr != alphaCtr {
		t.Fatalf("alpha counters = %+v, want %+v", gotCtr, alphaCtr)
	}
	for _, name := range []string{"alpha", "beta"} {
		d, _ := r.Get(name)
		if err := d.Verify(); err != nil {
			t.Fatalf("%s order after rollback: %v", name, err)
		}
	}
}

// A build error or an unknown name must abort before any lock or
// mutation side effect.
func TestMultiBatchErrors(t *testing.T) {
	r := New(Options{})
	openPair(t, r)
	if _, err := r.MultiBatch([]string{"alpha", "ghost"}, func(map[string]*MultiDoc) error {
		t.Fatal("build ran despite unknown document")
		return nil
	}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown name: %v, want ErrNotFound", err)
	}
	boom := errors.New("boom")
	if _, err := r.MultiBatch([]string{"alpha"}, func(map[string]*MultiDoc) error {
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("build error: %v, want boom", err)
	}
	before := repoXML(t, r, "alpha")
	// Queued ops from a failed build must not have leaked into the doc.
	if got := repoXML(t, r, "alpha"); got != before {
		t.Fatal("failed multibatch mutated a document")
	}
	// An empty transaction commits nothing and succeeds.
	res, err := r.MultiBatch([]string{"alpha", "beta"}, func(map[string]*MultiDoc) error { return nil })
	if err != nil || len(res) != 2 {
		t.Fatalf("empty multibatch: %v (%d results)", err, len(res))
	}
}

// A cross-document move: delete the subtree in the source document
// and graft a detached copy into the destination, atomically.
func TestMultiBatchCrossDocumentMove(t *testing.T) {
	r := New(Options{})
	src, err := xmltree.ParseString(`<archive><box id="1"><item>x</item></box><box id="2"/></archive>`)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := xmltree.ParseString(`<active/>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("archive", src, "qed"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("active", dst, "qed"); err != nil {
		t.Fatal(err)
	}
	_, err = r.MultiBatch([]string{"archive", "active"}, func(m map[string]*MultiDoc) error {
		from, to := m["archive"], m["active"]
		box := from.Document().Root().Children()[0]
		from.Batch().Delete(box)
		to.Batch().AppendSubtree(to.Document().Root(), box.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := repoXML(t, r, "archive"); got != `<archive><box id="2"/></archive>` {
		t.Fatalf("archive = %s", got)
	}
	if got := repoXML(t, r, "active"); got != `<active><box id="1"><item>x</item></box></active>` {
		t.Fatalf("active = %s", got)
	}
}

// Concurrent MultiBatches over overlapping document sets, plain
// Batches, Saves and Views: the sorted-name lock order must admit all
// of it without deadlock, and every increment must land exactly once.
func TestMultiBatchConcurrentNoDeadlock(t *testing.T) {
	r := New(Options{})
	names := []string{"a", "b", "c", "d"}
	for _, name := range names {
		doc, err := xmltree.ParseString("<r/>")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Open(name, doc, "qed"); err != nil {
			t.Fatal(err)
		}
	}
	const iters = 60
	var wg sync.WaitGroup
	multi := func(set []string) {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_, err := r.MultiBatch(set, func(m map[string]*MultiDoc) error {
				for _, md := range m {
					md.Batch().AppendChild(md.Document().Root(), "n")
				}
				return nil
			})
			if err != nil {
				t.Errorf("multibatch %v: %v", set, err)
				return
			}
		}
	}
	wg.Add(2)
	go multi([]string{"c", "a", "b"}) // deliberately unsorted inputs
	go multi([]string{"d", "c"})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := r.Batch("b", []update.Op{}); err != nil {
				t.Errorf("batch: %v", err)
				return
			}
			if _, err := r.Save(); err != nil {
				t.Errorf("save: %v", err)
				return
			}
			if err := r.View("c", func(*update.Session) error { return nil }); err != nil {
				t.Errorf("view: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	want := map[string]int{"a": iters, "b": iters, "c": 2 * iters, "d": iters}
	for name, n := range want {
		err := r.View(name, func(s *update.Session) error {
			if got := len(s.Document().Root().Children()); got != n {
				return fmt.Errorf("%s has %d children, want %d", name, got, n)
			}
			return s.Verify()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// seedMulti opens three documents on a durable repository and commits
// a mix of multi-document transactions (including a cross-document
// move) and plain batches.
func seedMulti(t *testing.T, d *DurableRepository, n int) {
	t.Helper()
	if err := d.Open("idx", mustParse(t, `<idx><seed/></idx>`), "qed"); err != nil {
		t.Fatal(err)
	}
	if err := d.Open("books", mustParse(t, `<lib><book id="b0"/></lib>`), "deweyid"); err != nil {
		t.Fatal(err)
	}
	if err := d.Open("trash", mustParse(t, `<trash/>`), "qed"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, err := d.MultiBatch([]string{"books", "idx"}, func(m map[string]*MultiDoc) error {
			bk, ix := m["books"], m["idx"]
			root := bk.Document().Root()
			bk.Batch().AppendChild(root, fmt.Sprintf("book%d", i)).
				SetAttr(root, "count", fmt.Sprintf("%d", i+1))
			ix.Batch().AppendChild(ix.Document().Root(), fmt.Sprintf("e%d", i))
			return nil
		})
		if err != nil {
			t.Fatalf("multibatch %d: %v", i, err)
		}
		if i%3 == 2 {
			// Cross-document move: oldest book into the trash.
			_, err := d.MultiBatch([]string{"books", "trash"}, func(m map[string]*MultiDoc) error {
				bk, tr := m["books"], m["trash"]
				victim := bk.Document().Root().Children()[0]
				bk.Batch().Delete(victim)
				tr.Batch().AppendSubtree(tr.Document().Root(), victim.Clone())
				return nil
			})
			if err != nil {
				t.Fatalf("move %d: %v", i, err)
			}
		}
		if _, err := d.Batch("idx", func(doc *xmltree.Document, b *update.Batch) error {
			b.SetText(doc.Root().Children()[0], fmt.Sprintf("tick %d", i))
			return nil
		}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

// Crash-recovery of multi-document transactions: interleaved RecMulti
// and RecBatch records replay label-exactly on every involved
// document.
func TestDurableMultiBatchRecovers(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedMulti(t, d, 10)
	want := map[string][]any{}
	for _, name := range []string{"idx", "books", "trash"} {
		for _, row := range docTable(t, d, name) {
			want[name] = append(want[name], row)
		}
	}
	// Crash: no Close, no Checkpoint.

	recovered, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	for _, name := range []string{"idx", "books", "trash"} {
		if err := recovered.Verify(name); err != nil {
			t.Fatalf("recovered %q order: %v", name, err)
		}
		var got []any
		for _, row := range docTable(t, recovered, name) {
			got = append(got, row)
		}
		if !reflect.DeepEqual(got, want[name]) {
			t.Fatalf("recovered %q diverged:\n got %v\nwant %v", name, got, want[name])
		}
	}
}

// A failing multi-document transaction must leave no log record and
// no tree change on ANY involved document.
func TestDurableMultiBatchFailureLogsNothing(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	seedMulti(t, d, 3)
	wantBooks, wantIdx := docTable(t, d, "books"), docTable(t, d, "idx")
	size, _ := d.LogSize()
	_, err = d.MultiBatch([]string{"books", "idx"}, func(m map[string]*MultiDoc) error {
		bk, ix := m["books"], m["idx"]
		bk.Batch().AppendChild(bk.Document().Root(), "ok")
		ix.Batch().Delete(xmltree.NewElement("detached")) // fails validation
		return nil
	})
	if err == nil {
		t.Fatal("invalid multibatch committed")
	}
	if after, _ := d.LogSize(); after != size {
		t.Fatal("failed multibatch appended a record")
	}
	if got := docTable(t, d, "books"); !reflect.DeepEqual(got, wantBooks) {
		t.Fatal("failed multibatch mutated books")
	}
	if got := docTable(t, d, "idx"); !reflect.DeepEqual(got, wantIdx) {
		t.Fatal("failed multibatch mutated idx")
	}
}

// The acceptance crash test: kill the process around the single
// RecMulti append — before it, mid-record, and after it — and require
// every involved document to recover to the full pre- or full
// post-transaction state, never a mix, with order verification
// passing.
func TestKillDuringMultiBatchAppend(t *testing.T) {
	type state struct{ books, idx, trash []any }
	capture := func(t *testing.T, d *DurableRepository) state {
		var st state
		for _, row := range docTable(t, d, "books") {
			st.books = append(st.books, row)
		}
		for _, row := range docTable(t, d, "idx") {
			st.idx = append(st.idx, row)
		}
		for _, row := range docTable(t, d, "trash") {
			st.trash = append(st.trash, row)
		}
		return st
	}

	// build commits history, then one more multi-document transaction
	// (the one the crash tears), returning the log offsets just before
	// and after its RecMulti record plus both states.
	build := func(t *testing.T, dir string) (pre, post state, sizeBefore, sizeAfter int64) {
		d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		seedMulti(t, d, 4)
		pre = capture(t, d)
		sizeBefore, _ = d.LogSize()
		_, err = d.MultiBatch([]string{"books", "idx", "trash"}, func(m map[string]*MultiDoc) error {
			for _, md := range m {
				md.Batch().AppendChild(md.Document().Root(), "final")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		post = capture(t, d)
		sizeAfter, _ = d.LogSize()
		// Crash: abandon without Close. SyncPerCommit means every byte
		// below sizeAfter is already in the file.
		return pre, post, sizeBefore, sizeAfter
	}

	cases := []struct {
		name string
		// cut computes the file size to truncate the single segment to;
		// a negative return means no truncation.
		cut       func(before, after int64) int64
		wantPost  bool
		wantNames []string
	}{
		{"BeforeAppend", func(before, after int64) int64 { return before }, false, nil},
		{"TornFrameHeader", func(before, after int64) int64 { return before + 3 }, false, nil},
		{"TornMidPayload", func(before, after int64) int64 { return after - 2 }, false, nil},
		{"AfterAppend", func(before, after int64) int64 { return -1 }, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pre, post, before, after := build(t, dir)
			if cut := tc.cut(before, after); cut >= 0 {
				seg := filepath.Join(dir, wal.SegmentName(1))
				st, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if cut >= st.Size() {
					t.Fatalf("cut %d beyond segment size %d", cut, st.Size())
				}
				if err := os.Truncate(seg, cut); err != nil {
					t.Fatal(err)
				}
			}
			recovered, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer recovered.Close()
			for _, name := range []string{"books", "idx", "trash"} {
				if err := recovered.Verify(name); err != nil {
					t.Fatalf("recovered %q order: %v", name, err)
				}
			}
			got := capture(t, recovered)
			want := pre
			if tc.wantPost {
				want = post
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered state is not the full %s state:\n got %+v\nwant %+v",
					map[bool]string{true: "post", false: "pre"}[tc.wantPost], got, want)
			}
			// Explicitly reject a mixed outcome: no document may sit in
			// the other state.
			other := post
			if tc.wantPost {
				other = pre
			}
			for name, gotRows := range map[string][]any{"books": got.books, "idx": got.idx, "trash": got.trash} {
				otherRows := map[string][]any{"books": other.books, "idx": other.idx, "trash": other.trash}[name]
				if reflect.DeepEqual(gotRows, otherRows) {
					t.Fatalf("document %q recovered to the other transaction side: torn multi record was partially applied", name)
				}
			}
		})
	}
}

// Concurrent multi-document writers with overlapping sets, tiny
// segments and a live auto-checkpointer; recovery must land every
// transaction exactly once on every involved document.
func TestDurableConcurrentMultiBatch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SegmentBytes: 512, AutoCheckpointBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"w", "x", "y", "z"}
	for _, name := range names {
		if err := d.Open(name, mustParse(t, "<r/>"), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	const iters = 25
	sets := [][]string{{"x", "w"}, {"y", "x"}, {"z", "y"}}
	var wg sync.WaitGroup
	for _, set := range sets {
		wg.Add(1)
		go func(set []string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, err := d.MultiBatch(set, func(m map[string]*MultiDoc) error {
					for _, md := range m {
						md.Batch().AppendChild(md.Document().Root(), "n")
					}
					return nil
				})
				if err != nil {
					t.Errorf("multibatch %v: %v", set, err)
					return
				}
			}
		}(set)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	want := map[string]int{"w": iters, "x": 2 * iters, "y": 2 * iters, "z": iters}
	for name, n := range want {
		err := recovered.View(name, func(s *update.Session) error {
			if got := len(s.Document().Root().Children()); got != n {
				return fmt.Errorf("%s has %d children, want %d", name, got, n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := recovered.Verify(name); err != nil {
			t.Fatalf("%s order: %v", name, err)
		}
	}
}

// Open → Drop → re-Open of the same name with segment rotations
// between the registry records: replay must stitch the interleaved
// stream across the boundary and keep only the re-opened document.
func TestOpenDropReopenAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{SegmentBytes: 256, AutoCheckpointBytes: -1}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Open("filler", mustParse(t, "<f/>"), "qed"); err != nil {
		t.Fatal(err)
	}
	pad := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := d.Batch("filler", func(doc *xmltree.Document, b *update.Batch) error {
				b.AppendChild(doc.Root(), "pad-entry-with-some-width")
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	activeAt := func() uint64 {
		t.Helper()
		_, active, ok := d.SegmentRange()
		if !ok {
			t.Fatal("SegmentRange on an open repository reported closed")
		}
		return active
	}

	if err := d.Open("x", mustParse(t, "<x><one/></x>"), "qed"); err != nil {
		t.Fatal(err)
	}
	segOpen := activeAt()
	pad(12)
	if ok, err := d.Drop("x"); !ok || err != nil {
		t.Fatalf("drop: %v %v", ok, err)
	}
	segDrop := activeAt()
	pad(12)
	if err := d.Open("x", mustParse(t, `<x scheme="second"><two/></x>`), "deweyid"); err != nil {
		t.Fatal(err)
	}
	segReopen := activeAt()
	pad(6)
	if !(segOpen < segDrop && segDrop < segReopen) {
		t.Fatalf("registry records did not straddle segment boundaries: open@%d drop@%d reopen@%d",
			segOpen, segDrop, segReopen)
	}
	want := docTable(t, d, "x")
	// Crash without Close.

	recovered, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	if names := recovered.Names(); !reflect.DeepEqual(names, []string{"filler", "x"}) {
		t.Fatalf("names = %v", names)
	}
	if scheme, _ := recovered.Scheme("x"); scheme != "deweyid" {
		t.Fatalf("recovered scheme = %q, want deweyid (the re-open)", scheme)
	}
	if got := docTable(t, recovered, "x"); !reflect.DeepEqual(got, want) {
		t.Fatalf("open/drop/reopen across segments diverged:\n got %v\nwant %v", got, want)
	}
	if err := recovered.Verify("x"); err != nil {
		t.Fatal(err)
	}
}

// A failing Checkpoint must not leave snapshot orphans behind: a
// repeatedly failing checkpoint would otherwise accumulate one file
// per try. The fresh segment a failed manifest switch leaves is NOT
// an orphan — post-cut commits may already live in it, so it stays
// the live tail (cost: one near-empty segment per failed attempt).
func TestCheckpointFailureLeavesNoOrphans(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	seedAndBatch(t, d, 4)

	snapFiles := func() []string {
		t.Helper()
		var got []string
		for _, pat := range []string{"doc-*.snap", "snapshot-*.xdyn"} {
			matches, err := filepath.Glob(filepath.Join(dir, pat))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, matches...)
		}
		return got
	}
	_, active, _ := d.SegmentRange()

	// Failure mode 1: segment creation fails (the next segment's path
	// is taken by a directory). The checkpoint aborts at the cut,
	// before any snapshot is written — twice, to prove nothing
	// accumulates — and the repository keeps committing on the old log.
	blockSeg := filepath.Join(dir, wal.SegmentName(active+1))
	if err := os.Mkdir(blockSeg, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := d.Checkpoint(); err == nil {
			t.Fatal("checkpoint succeeded despite blocked segment creation")
		}
		if got := snapFiles(); len(got) != 0 {
			t.Fatalf("failed checkpoint left snapshot orphans: %v", got)
		}
	}
	if _, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "mid")
		return nil
	}); err != nil {
		t.Fatalf("commit after aborted cut: %v", err)
	}

	// Failure mode 2: the manifest switch fails (its temp path is
	// taken by a directory). The attempt's snapshot files must be
	// removed, but the fresh segment created at the cut survives as
	// the live tail: the old manifest plus the contiguous segment
	// chain still replays everything, including commits made after
	// the failed attempt.
	if err := os.Remove(blockSeg); err != nil {
		t.Fatal(err)
	}
	blockMan := filepath.Join(dir, "MANIFEST.tmp")
	if err := os.Mkdir(blockMan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded despite blocked manifest write")
	}
	if got := snapFiles(); len(got) != 0 {
		t.Fatalf("failed checkpoint left snapshot orphans: %v", got)
	}
	if _, err := os.Stat(blockSeg); err != nil {
		t.Fatalf("fresh segment (the post-cut live tail) missing: %v", err)
	}
	if _, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "after")
		return nil
	}); err != nil {
		t.Fatalf("commit after failed manifest switch: %v", err)
	}
	// The succeeding checkpoint below routes recovery through a
	// snapshot, which relabels — compare the label-independent form.
	want := docXML(t, d, "books")

	// Unblock: the next checkpoint must succeed, and recovery must see
	// every commit made around the failed attempts.
	if err := os.Remove(blockMan); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after unblocking: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatalf("recovery after failed checkpoints: %v", err)
	}
	defer reopened.Close()
	if got := docXML(t, reopened, "books"); got != want {
		t.Fatalf("recovered state diverged:\n got %v\nwant %v", got, want)
	}
}

// Drop must not report "did not exist" when the slot it locked was
// concurrently dropped and re-opened under the same name: it retries
// against the live slot and drops it.
func TestDropRetriesWhenSlotSwapped(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Open("x", mustParse(t, "<x/>"), "qed"); err != nil {
		t.Fatal(err)
	}
	doc1, ok := d.repo().Get("x")
	if !ok {
		t.Fatal("x missing")
	}
	// Park a writer on the slot so the concurrent Drop blocks after
	// its lookup.
	doc1.mu.Lock()
	done := make(chan struct{})
	var dropped bool
	var dropErr error
	go func() {
		defer close(done)
		dropped, dropErr = d.Drop("x")
	}()
	// Give Drop time to pass its lookup and block on doc1.mu.
	time.Sleep(100 * time.Millisecond)
	// Swap the slot under the blocked Drop, as a concurrent
	// drop-then-reopen would: the in-memory registry now serves a NEW
	// document under the same name. (Directly via the inner repository
	// — the durable Drop is the goroutine we are testing.)
	sess, err := newSchemeSession(mustParse(t, "<x><two/></x>"), "qed")
	if err != nil {
		t.Fatal(err)
	}
	d.repo().Drop("x")
	if _, err := d.repo().add("x", "qed", sess); err != nil {
		t.Fatal(err)
	}
	doc1.mu.Unlock()
	<-done
	if dropErr != nil {
		t.Fatalf("drop: %v", dropErr)
	}
	if !dropped {
		t.Fatal("Drop reported \"did not exist\" while a live document held the name")
	}
	if _, ok := d.repo().Get("x"); ok {
		t.Fatal("x still present after the retried drop")
	}
}

// The inspection methods must distinguish a closed repository from an
// empty log / collapsed segment range.
func TestClosedInspectionSignals(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if size, ok := d.LogSize(); !ok || size != int64(wal.HeaderSize) {
		t.Fatalf("open LogSize = %d, %v", size, ok)
	}
	if first, active, ok := d.SegmentRange(); !ok || first != 1 || active != 1 {
		t.Fatalf("open SegmentRange = [%d..%d], %v", first, active, ok)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if size, ok := d.LogSize(); ok {
		t.Fatalf("closed LogSize reported ok (size %d)", size)
	}
	if first, active, ok := d.SegmentRange(); ok {
		t.Fatalf("closed SegmentRange reported ok ([%d..%d])", first, active)
	}
	// A MultiBatch on a closed repository refuses like every mutation.
	if _, err := d.MultiBatch([]string{"x"}, func(map[string]*MultiDoc) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("multibatch after close: %v", err)
	}
}

// Batch, like Drop, must retry — not report ErrNotFound — when the
// slot it raced was concurrently dropped and re-opened under the same
// name: the commit lands on the live document.
func TestBatchRetriesWhenSlotSwapped(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Open("x", mustParse(t, "<x/>"), "qed"); err != nil {
		t.Fatal(err)
	}
	doc1, ok := d.repo().Get("x")
	if !ok {
		t.Fatal("x missing")
	}
	doc1.mu.Lock()
	done := make(chan struct{})
	var batchErr error
	go func() {
		defer close(done)
		_, batchErr = d.Batch("x", func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), "landed")
			return nil
		})
	}()
	time.Sleep(100 * time.Millisecond)
	sess, err := newSchemeSession(mustParse(t, "<x><fresh/></x>"), "qed")
	if err != nil {
		t.Fatal(err)
	}
	d.repo().Drop("x")
	if _, err := d.repo().add("x", "qed", sess); err != nil {
		t.Fatal(err)
	}
	doc1.mu.Unlock()
	<-done
	if batchErr != nil {
		t.Fatalf("batch against a swapped slot: %v (want a retried commit)", batchErr)
	}
	if got := docXML(t, d, "x"); got != "<x><fresh/><landed/></x>" {
		t.Fatalf("batch landed on the wrong slot: %s", got)
	}
}
