package repo

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"xmldyn/internal/encoding"
	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// docTable captures a document's full observable state — labels, label
// order, names, values and attributes — as its encoding table.
func docTable(t *testing.T, d *DurableRepository, name string) []encoding.Row {
	t.Helper()
	var rows []encoding.Row
	err := d.View(name, func(s *update.Session) error {
		rows = encoding.Wrap(s.Document(), s.Labeling()).Table()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// docXML captures a document's serialised tree. Unlike docTable it is
// label-independent: recovery through a checkpoint snapshot rebuilds
// labelings fresh (exactly as Repository.Load does), so post-snapshot
// comparisons are of trees, while pure log replay is label-exact.
func docXML(t *testing.T, d *DurableRepository, name string) string {
	t.Helper()
	var out string
	err := d.View(name, func(s *update.Session) error {
		out = s.Document().XML()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustParse(t testing.TB, text string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// seedAndBatch opens two documents and commits n batches against each,
// mixing inserts, deletes, attribute and text updates.
func seedAndBatch(t testing.TB, d *DurableRepository, n int) {
	t.Helper()
	if err := d.Open("books", mustParse(t, `<lib><book id="b0"><title>Zero</title></book></lib>`), "qed"); err != nil {
		t.Fatal(err)
	}
	if err := d.Open("feeds", mustParse(t, `<feeds><f/></feeds>`), "deweyid"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
			root := doc.Root()
			nb := b.AppendChild(root, fmt.Sprintf("book%d", i))
			nb.SetAttr(root, "count", fmt.Sprintf("%d", i+1))
			if kids := root.Children(); i%3 == 2 && len(kids) > 2 {
				b.Delete(kids[1])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("books batch %d: %v", i, err)
		}
		_, err = d.Batch("feeds", func(doc *xmltree.Document, b *update.Batch) error {
			f := doc.Root().Children()[0]
			b.InsertAfter(f, fmt.Sprintf("e%d", i))
			b.SetText(f, fmt.Sprintf("tick %d", i))
			return nil
		})
		if err != nil {
			t.Fatalf("feeds batch %d: %v", i, err)
		}
	}
}

// The headline acceptance test: commit N batches, "crash" (abandon the
// repository without Close or Checkpoint), reopen, and require the
// replayed state — labels, order, attributes — to equal the state of a
// never-crashed run of the same program.
func TestKillAndRecoverReplaysExactly(t *testing.T) {
	const batches = 17
	dirA, dirB := t.TempDir(), t.TempDir()

	crashed, err := OpenDurable(dirA, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedAndBatch(t, crashed, batches)
	// Crash: no Close, no Checkpoint. SyncPerCommit means every commit
	// is already in the file.
	wantBooks := docTable(t, crashed, "books")
	wantFeeds := docTable(t, crashed, "feeds")

	survivor, err := OpenDurable(dirB, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedAndBatch(t, survivor, batches)

	recovered, err := OpenDurable(dirA, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	for _, docName := range []string{"books", "feeds"} {
		if err := recovered.Verify(docName); err != nil {
			t.Fatalf("recovered %q order: %v", docName, err)
		}
	}
	if got := docTable(t, recovered, "books"); !reflect.DeepEqual(got, wantBooks) {
		t.Fatalf("recovered books diverged from crashed state:\n got %v\nwant %v", got, wantBooks)
	}
	if got, viaSurvivor := docTable(t, recovered, "feeds"), docTable(t, survivor, "feeds"); !reflect.DeepEqual(got, wantFeeds) || !reflect.DeepEqual(got, viaSurvivor) {
		t.Fatalf("recovered feeds diverged:\n got %v\nwant %v (crashed) / %v (survivor)", got, wantFeeds, viaSurvivor)
	}
	if scheme, ok := recovered.Scheme("feeds"); !ok || scheme != "deweyid" {
		t.Fatalf("recovered feeds scheme = %q, %v", scheme, ok)
	}
	_ = survivor.Close()
}

// A torn final record (crash mid-append) must cost exactly the torn
// commit: replay stops at the last valid batch.
func TestRecoveryStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedAndBatch(t, d, 6)
	before := docTable(t, d, "books")
	// One more commit, which the "crash" will tear.
	if _, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "torn")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	man, err := store.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, wal.SegmentName(man.WALFirst))
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop bytes out of its payload tail.
	if err := os.Truncate(walPath, st.Size()-2); err != nil {
		t.Fatal(err)
	}

	recovered, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer recovered.Close()
	got := docTable(t, recovered, "books")
	if !reflect.DeepEqual(got, before) {
		t.Fatalf("torn tail recovery diverged from last valid commit:\n got %v\nwant %v", got, before)
	}
	// The tail was truncated on reopen: appending works and survives
	// another recovery.
	if _, err := recovered.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "after")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Checkpoint folds the log into a snapshot: the log restarts empty,
// state survives reopen, and pre-checkpoint files are gone.
func TestCheckpointTruncatesLogAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedAndBatch(t, d, 8)
	grownLog, _ := d.LogSize()
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if d.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", d.Generation())
	}
	if size, ok := d.LogSize(); !ok || size >= grownLog || size != int64(wal.HeaderSize) {
		t.Fatalf("log size after checkpoint = %d, want bare header %d", size, wal.HeaderSize)
	}
	if _, err := os.Stat(filepath.Join(dir, wal.SegmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("old wal segment still present: %v", err)
	}
	if first, active, ok := d.SegmentRange(); !ok || first != 2 || active != 2 {
		t.Fatalf("segment range = [%d..%d], want [2..2]", first, active)
	}
	// Post-checkpoint commits land in the new log.
	if _, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "post")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	post := docXML(t, d, "books")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer reopened.Close()
	if got := docXML(t, reopened, "books"); got != post {
		t.Fatalf("post-checkpoint recovery diverged:\n got %s\nwant %s", got, post)
	}
	if err := reopened.Verify("books"); err != nil {
		t.Fatalf("reopened order: %v", err)
	}
}

// v4ManifestFixture is a genuine version-4 manifest (generation 2, one
// whole-repository container "snapshot-000002.xdyn", first live
// segment 7) with a valid checksum: a format this build does not read.
const v4ManifestFixture = "XDYN\x04\x02\x14snapshot-000002.xdyn\a\xe3\xfa\xa6\x97\xda\x92\xf4\xfaR"

// dirListing captures every file of dir with its content, to prove a
// rejected open left the directory untouched.
func dirListing(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// A version-4 manifest (one whole-repository container) is a format
// this build does not read: the leader and the follower both refuse
// the directory with ErrBadVersion under ErrReplay — exactly as for a
// version-3 manifest — and leave every file in it untouched, stray
// files the orphan sweep would otherwise claim included.
// (Kill-during-checkpoint crash windows are covered exhaustively by
// the crash-matrix harness in crashmatrix_test.go.)
func TestV4ManifestRejected(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		store.ManifestName:           v4ManifestFixture,
		"snapshot-000002.xdyn":       "container bytes",
		wal.SegmentName(3):           "a dead segment",
		store.DocSnapName("x", 1, 0): "an unreferenced snapshot",
		"stray.tmp":                  "a temp file",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := DurableOptions{AutoCheckpointBytes: -1}
	if _, err := OpenDurable(dir, opts); !errors.Is(err, store.ErrBadVersion) || !errors.Is(err, ErrReplay) {
		t.Fatalf("OpenDurable on a v4 directory: %v, want ErrBadVersion under ErrReplay", err)
	}
	if _, err := OpenFollower(dir, opts); !errors.Is(err, store.ErrBadVersion) || !errors.Is(err, ErrReplay) {
		t.Fatalf("OpenFollower on a v4 directory: %v, want ErrBadVersion under ErrReplay", err)
	}
	if got := dirListing(t, dir); !reflect.DeepEqual(got, files) {
		t.Fatalf("rejected open modified the directory:\n got %v\nwant %v", got, files)
	}
}

// Opens and drops are logged too: a document opened after the last
// checkpoint, then dropped, then reopened with different content must
// recover to exactly the final state.
func TestOpenDropReplay(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Open("a", mustParse(t, "<a><one/></a>"), "qed"); err != nil {
		t.Fatal(err)
	}
	if err := d.Open("b", mustParse(t, "<b/>"), "ordpath"); err != nil {
		t.Fatal(err)
	}
	if err := d.Open("a", mustParse(t, "<a/>"), "qed"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate open: %v, want ErrExists", err)
	}
	if ok, err := d.Drop("a"); !ok || err != nil {
		t.Fatalf("drop: %v %v", ok, err)
	}
	if ok, err := d.Drop("a"); ok || err != nil {
		t.Fatalf("double drop: %v %v", ok, err)
	}
	if err := d.Open("a", mustParse(t, "<a><two x='y'/></a>"), "deweyid"); err != nil {
		t.Fatal(err)
	}
	want := docTable(t, d, "a")

	recovered, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	if names := recovered.Names(); !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Fatalf("names = %v", names)
	}
	if scheme, _ := recovered.Scheme("a"); scheme != "deweyid" {
		t.Fatalf("replayed scheme = %q, want deweyid (the re-open)", scheme)
	}
	if got := docTable(t, recovered, "a"); !reflect.DeepEqual(got, want) {
		t.Fatalf("open/drop replay diverged:\n got %v\nwant %v", got, want)
	}
}

// A failed batch (bad op) must leave neither tree changes nor a log
// record, so recovery matches the unfailed history.
func TestFailedBatchLogsNothing(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedAndBatch(t, d, 3)
	want := docTable(t, d, "books")
	size, _ := d.LogSize()
	_, err = d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "ok")
		b.Delete(xmltree.NewElement("detached")) // fails validation
		return nil
	})
	if err == nil {
		t.Fatal("invalid batch committed")
	}
	if after, _ := d.LogSize(); after != size {
		t.Fatal("failed batch appended a record")
	}
	if got := docTable(t, d, "books"); !reflect.DeepEqual(got, want) {
		t.Fatal("failed batch mutated the tree")
	}
	recovered, err := OpenDurable(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = recovered.Close()
}

// Concurrent writers on distinct documents commit in parallel under
// every sync policy, and recovery replays the interleaved log.
func TestConcurrentDurableCommits(t *testing.T) {
	for _, pol := range []wal.SyncPolicy{wal.SyncPerCommit, wal.SyncGrouped, wal.SyncAsync} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			// Tiny thresholds: rotation and auto-checkpoints race the
			// concurrent committers, which is exactly what -race should see.
			d, err := OpenDurable(dir, DurableOptions{Sync: pol, SegmentBytes: 512, AutoCheckpointBytes: 2048})
			if err != nil {
				t.Fatal(err)
			}
			const docs, commits = 4, 12
			for i := 0; i < docs; i++ {
				if err := d.Open(fmt.Sprintf("doc%d", i), mustParse(t, "<r><s/></r>"), "qed"); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < docs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					name := fmt.Sprintf("doc%d", i)
					for c := 0; c < commits; c++ {
						_, err := d.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
							b.AppendChild(doc.Root(), fmt.Sprintf("c%d", c))
							return nil
						})
						if err != nil {
							t.Errorf("%s commit %d: %v", name, c, err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			if err := d.Close(); err != nil { // Close syncs the async tail
				t.Fatal(err)
			}
			recovered, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer recovered.Close()
			for i := 0; i < docs; i++ {
				name := fmt.Sprintf("doc%d", i)
				err := recovered.View(name, func(s *update.Session) error {
					if got := len(s.Document().Root().Children()); got != commits+1 {
						return fmt.Errorf("%s has %d children, want %d", name, got, commits+1)
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
		})
	}
}

// Replay across several segments: commits spill over a tiny rotation
// threshold into ≥3 segments, the final one is torn mid-record, and
// recovery must replay the stitched stream label-exactly up to the cut.
func TestMultiSegmentReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{SegmentBytes: 400, AutoCheckpointBytes: -1}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	seedAndBatch(t, d, 20)
	if _, active, _ := d.SegmentRange(); active < 3 {
		t.Fatalf("active segment = %d, want ≥3 segments for this test", active)
	}
	wantBooks := docTable(t, d, "books")
	wantFeeds := docTable(t, d, "feeds")
	// One more commit, which the "crash" tears mid-record.
	if _, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "torn")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_, active, _ := d.SegmentRange()
	last := filepath.Join(dir, wal.SegmentName(active))
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-2); err != nil {
		t.Fatal(err)
	}

	recovered, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("recovery across segments: %v", err)
	}
	defer recovered.Close()
	if got := docTable(t, recovered, "books"); !reflect.DeepEqual(got, wantBooks) {
		t.Fatalf("multi-segment recovery diverged (books):\n got %v\nwant %v", got, wantBooks)
	}
	if got := docTable(t, recovered, "feeds"); !reflect.DeepEqual(got, wantFeeds) {
		t.Fatalf("multi-segment recovery diverged (feeds):\n got %v\nwant %v", got, wantFeeds)
	}
	if first, _, _ := recovered.SegmentRange(); first != 1 {
		t.Fatalf("first live segment = %d, want 1 (no checkpoint ran)", first)
	}
	// The torn tail was truncated: appends resume and survive another
	// recovery.
	if _, err := recovered.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "after")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Crash during rotation: the old segment is sealed and the fresh one
// exists but holds no records yet. Recovery must adopt the empty
// segment as the append tail and replay everything before it
// label-exactly.
func TestCrashDuringRotation(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{SegmentBytes: 400, AutoCheckpointBytes: -1}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	seedAndBatch(t, d, 12)
	want := docTable(t, d, "books")
	_, active, _ := d.SegmentRange()
	// Crash mid-rotation: the new segment file is created (synced
	// header, synced directory) exactly as Log.Rotate does, but no
	// record ever lands in it.
	fresh, err := wal.Create(dir, active+1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = fresh.Close()

	recovered, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("recovery after crashed rotation: %v", err)
	}
	defer recovered.Close()
	if got := docTable(t, recovered, "books"); !reflect.DeepEqual(got, want) {
		t.Fatalf("crashed-rotation recovery diverged:\n got %v\nwant %v", got, want)
	}
	if first, act, _ := recovered.SegmentRange(); first != 1 || act != active+1 {
		t.Fatalf("segment range = [%d..%d], want [1..%d] (empty segment adopted as tail)", first, act, active+1)
	}
	if _, err := recovered.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "resumed")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// The background auto-checkpoint must actually fire once live log
// bytes pass the threshold, retire dead segments, and leave a state
// that recovers exactly.
func TestAutoCheckpointFires(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SegmentBytes: 256, AutoCheckpointBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Open("books", mustParse(t, "<lib><seed/></lib>"), "qed"); err != nil {
		t.Fatal(err)
	}
	var runs uint64
	for i := 0; i < 4000; i++ {
		if _, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
			root := doc.Root()
			b.AppendChild(root, fmt.Sprintf("b%d", i))
			if kids := root.Children(); len(kids) > 32 {
				b.Delete(kids[1])
			}
			return nil
		}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if runs, _ = d.AutoCheckpoints(); runs >= 2 {
			break
		}
	}
	var autoErr error
	if runs, autoErr = d.AutoCheckpoints(); runs < 2 {
		t.Fatalf("auto-checkpoint never fired twice (runs=%d, err=%v)", runs, autoErr)
	}
	if autoErr != nil {
		t.Fatalf("auto-checkpoint error: %v", autoErr)
	}
	if gen := d.Generation(); gen < 3 {
		t.Fatalf("generation = %d, want ≥3 after ≥2 auto-checkpoints", gen)
	}
	first, _, _ := d.SegmentRange()
	if first < 2 {
		t.Fatalf("first live segment = %d, want >1 after checkpoints", first)
	}
	for idx := uint64(1); idx < first; idx++ {
		if _, err := os.Stat(filepath.Join(dir, wal.SegmentName(idx))); !os.IsNotExist(err) {
			t.Fatalf("dead segment %d survived auto-checkpoint", idx)
		}
	}
	want := docXML(t, d, "books")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery after auto-checkpoints: %v", err)
	}
	defer recovered.Close()
	if got := docXML(t, recovered, "books"); got != want {
		t.Fatalf("auto-checkpoint recovery diverged:\n got %s\nwant %s", got, want)
	}
	if err := recovered.Verify("books"); err != nil {
		t.Fatalf("recovered order: %v", err)
	}
}

// Closed repositories refuse everything.
func TestDurableClosedErrors(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := d.Open("x", mustParse(t, "<x/>"), "qed"); !errors.Is(err, ErrClosed) {
		t.Fatalf("open after close: %v", err)
	}
	if _, err := d.Batch("x", func(*xmltree.Document, *update.Batch) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close: %v", err)
	}
	if _, err := d.Drop("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("drop after close: %v", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close: %v", err)
	}
}

// The durable roles share the core's read surface by embedding, but
// the in-memory Repository's mutators and slot accessors must never
// become reachable through either of them: a mutation that bypasses
// the log is silently lost at recovery. The follower additionally has
// no commit API at all.
func TestDurableRolesExposeNoUnloggedMutator(t *testing.T) {
	unlogged := []string{"OpenSession", "Get", "Save"}
	commits := []string{"Open", "Drop", "Update", "Batch", "MultiBatch", "Checkpoint"}
	for _, tc := range []struct {
		typ       reflect.Type
		forbidden []string
	}{
		{reflect.TypeOf(&DurableRepository{}), unlogged},
		{reflect.TypeOf(&FollowerRepository{}), append(unlogged, commits...)},
	} {
		for _, name := range tc.forbidden {
			if _, ok := tc.typ.MethodByName(name); ok {
				t.Errorf("%v exposes %s", tc.typ, name)
			}
		}
		for _, name := range []string{"View", "Query", "QueryFunc", "Names", "Len", "Scheme", "Verify",
			"Snapshot", "SnapshotAt", "Stamp", "VersionStats", "Dir", "Generation", "Close"} {
			if _, ok := tc.typ.MethodByName(name); !ok {
				t.Errorf("%v lacks the core's %s", tc.typ, name)
			}
		}
	}
}
