package repo

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
	// Crash: no Close, no Checkpoint. Durable (grouped) sync means every
	// commit is already in the file.
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

	pack, _, err := store.ReadPacks(dir)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, wal.SegmentName(pack.WALFirst))
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
// the directory with ErrBadVersion under ErrReplay — as any directory
// holding a MANIFEST or a doc-*.snap, the per-file layout packs
// replaced — and leave every file in it untouched, stray files the
// orphan sweep would otherwise claim included.
// (Kill-during-checkpoint crash windows are covered exhaustively by
// the crash-matrix harness in crashmatrix_test.go.)
func TestV4ManifestRejected(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"MANIFEST":                   v4ManifestFixture,
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

// TestCorruptSnapshotFailsRecovery: one corrupt record among sixteen,
// in an older pack the current one references (so no pack trailer
// covers it), fails recovery with ErrReplay on the parallel worker pool
// and on the serial one, and the failed recovery installs nothing — no
// repository, no log. The first error stops new loads: a serial pool
// that meets the corrupt record first loads no other.
func TestCorruptSnapshotFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{AutoCheckpointBytes: -1}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 16 {
		if err := d.Open(fmt.Sprintf("doc-%02d", i), mustParse(t, "<r><c/></r>"), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One more checkpoint with one dirty document: the other fifteen
	// records stay in the first pack, which the second references.
	if _, err := d.Batch("doc-00", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "moved")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	pack, packs, err := store.ReadPacks(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := pack.Docs[len(pack.Docs)/2]
	if bad.Ref.Gen == pack.Gen {
		t.Fatalf("%s's record is in the current pack, want an older one", bad.Name)
	}
	data := packs[bad.Ref.Gen]
	data[bad.Ref.Off+bad.Ref.Len/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, store.PackName(bad.Ref.Gen)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, serial := range []bool{false, true} {
		c := &durableCore{dir: dir, opts: opts, serialRecovery: serial}
		if err := c.recover(); !errors.Is(err, ErrReplay) {
			t.Fatalf("serial %v: recovery with a corrupt snapshot: %v, want ErrReplay", serial, err)
		}
		if c.repo() != nil || c.log != nil {
			t.Fatalf("serial %v: a failed recovery installed state", serial)
		}
	}
	r := New()
	docs := append([]store.PackDoc{bad}, pack.Docs...)
	if err := loadRecords(r, docs, packs, 1); err == nil || r.Len() != 0 {
		t.Fatalf("serial load behind a corrupt snapshot: %v, %d documents loaded, want an error and none", err, r.Len())
	}
}

// TestMissingPackFailsRecovery: a current pack whose referenced older
// pack is gone fails recovery with ErrReplay — never read as a fresh
// directory, which OpenDurable would initialise over the survivors —
// and the refused open leaves the directory as it was.
func TestMissingPackFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{AutoCheckpointBytes: -1}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	seedAndBatch(t, d, 2)
	if err := d.Open("shelf", mustParse(t, "<shelf>"+strings.Repeat("<item>unchanged</item>", 20)+"</shelf>"), "qed"); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	older := store.PackName(d.Generation())
	if _, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "moved")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, older)); err != nil {
		t.Fatalf("the second pack does not reference %s: %v", older, err)
	}
	before := dirListing(t, dir)
	if _, err := OpenDurable(dir, opts); !errors.Is(err, ErrReplay) || !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("recovery without %s: %v, want ErrReplay wrapping store.ErrCorrupt", older, err)
	}
	if got := dirListing(t, dir); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused open changed the directory: %d files before, %d after", len(before), len(got))
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

// A document with two root elements is refused at Open, by both
// repositories, and so is a batch that would add a second root: neither
// reaches the log, whose images DecodeDocTree would refuse at recovery.
func TestSecondRootNeverLogged(t *testing.T) {
	twoRoots := func() *xmltree.Document {
		doc := xmltree.NewDocument()
		_ = doc.Node().AppendChild(xmltree.NewElement("a"))
		_ = doc.Node().AppendChild(xmltree.NewElement("b"))
		return doc
	}
	if err := New().Open("two", twoRoots(), "qed"); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("Repository.Open of two roots: %v, want ErrRootSibling", err)
	}
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedAndBatch(t, d, 1)
	want := docTable(t, d, "books")
	size, _ := d.LogSize()
	if err := d.Open("two", twoRoots(), "qed"); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("DurableRepository.Open of two roots: %v, want ErrRootSibling", err)
	}
	if _, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Node(), "second")
		return nil
	}); !errors.Is(err, update.ErrRootSibling) {
		t.Errorf("batch adding a second root: %v, want ErrRootSibling", err)
	}
	if after, _ := d.LogSize(); after != size {
		t.Fatal("a refused second root reached the log")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := docTable(t, recovered, "books"); !reflect.DeepEqual(got, want) {
		t.Fatal("recovery diverged after refused second roots")
	}
}

// Concurrent writers on distinct documents commit in parallel under
// every sync policy, and recovery replays the interleaved log.
func TestConcurrentDurableCommits(t *testing.T) {
	for _, pol := range []wal.SyncPolicy{wal.SyncGrouped, wal.SyncAsync} {
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

// TestCloseWaitsForAutoCheckpoint: the first commit past the threshold
// starts an auto-checkpoint, held waiting for ckptMu, and Close runs
// while it waits. Close shuts the repository and waits for the
// checkpoint, which, once ckptMu is released, finds the repository
// closed and gives up: Close returns only then, AutoCheckpoints reports
// no failure, and the directory recovers what was committed.
func TestCloseWaitsForAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.ckptMu.Lock()
	held := true
	defer func() {
		if held {
			d.ckptMu.Unlock()
		}
	}()
	if err := d.Open("books", mustParse(t, "<lib><seed/></lib>"), "qed"); err != nil {
		t.Fatal(err)
	}
	want := docXML(t, d, "books")
	// Wait until the started checkpoint is inside Checkpoint, where
	// ckptMu holds it.
	for deadline := time.Now().Add(10 * time.Second); !goroutineIn("(*DurableRepository).autoCheckpoint", "(*DurableRepository).Checkpoint("); {
		if time.Now().After(deadline) {
			t.Fatal("a commit past the threshold started no auto-checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while its auto-checkpoint was still running")
	case <-time.After(50 * time.Millisecond):
	}
	held = false
	d.ckptMu.Unlock()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	if d.autoRunning.Load() {
		t.Fatal("Close returned while its auto-checkpoint was still running")
	}
	if runs, err := d.AutoCheckpoints(); err != nil {
		t.Fatalf("AutoCheckpoints after Close: %d runs, %v; want no failure", runs, err)
	}
	assertImageRecovers(t, "after Close", dir, 0, map[string]string{"books": want})
}

// goroutineIn reports whether some goroutine's stack holds every one of
// frames.
func goroutineIn(frames ...string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		all := true
		for _, f := range frames {
			all = all && strings.Contains(g, f)
		}
		if all {
			return true
		}
	}
	return false
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

// TestOneWriteAPI: the in-memory Repository and the leader have one
// write API — Open, Batch and MultiBatch, each write an op list queued
// under the write lock — and one read surface, with identical
// signatures. The Repository exports nothing else but Save, which the
// leader lacks, and Drop, whose in-memory form returns a bare bool
// because only a log can fail a drop. A Doc is only its Version, and
// the follower has the read surface and no write at all. The exported
// method sets of all three roles and of Snapshot are fixed exactly, so
// a read method is added or removed here or not at all.
func TestOneWriteAPI(t *testing.T) {
	reads := []string{"View", "Query", "QueryFunc", "Names", "Len", "Scheme", "Verify",
		"Snapshot", "VersionStats"}
	shared := append([]string{"Open", "Batch", "MultiBatch"}, reads...)
	mem, leader, follower := reflect.TypeOf(&Repository{}), reflect.TypeOf(&DurableRepository{}), reflect.TypeOf(&FollowerRepository{})
	// durable is what both durable roles have beside the read surface.
	durable := []string{"Close", "Dir", "Generation"}
	// sig is the method's signature without its receiver, "" if typ has
	// no such method.
	sig := func(typ reflect.Type, name string) string {
		m, ok := typ.MethodByName(name)
		if !ok {
			return ""
		}
		var in, out []reflect.Type
		for i := 1; i < m.Type.NumIn(); i++ {
			in = append(in, m.Type.In(i))
		}
		for i := 0; i < m.Type.NumOut(); i++ {
			out = append(out, m.Type.Out(i))
		}
		return reflect.FuncOf(in, out, m.Type.IsVariadic()).String()
	}
	for _, name := range shared {
		if a, b := sig(mem, name), sig(leader, name); a == "" || a != b {
			t.Errorf("%s: Repository has %q, DurableRepository %q", name, a, b)
		}
	}
	for _, c := range []struct {
		typ  reflect.Type
		want [][]string
	}{
		{mem, [][]string{shared, {"Drop", "Save"}}},
		{leader, [][]string{shared, durable, {"Drop", "Checkpoint", "AutoCheckpoints", "LogSize",
			"BootstrapImage", "CommitNotify", "StopCommitNotify", "EndPosition", "PinSegments", "SegmentRange"}}},
		{follower, [][]string{reads, durable, {"ApplyRecord", "BeginSegment", "InstallBootstrap", "Position"}}},
		{reflect.TypeOf(&Snapshot{}), [][]string{{"Close", "Document", "Names", "Query", "Scheme", "Versions"}}},
	} {
		want := slices.Sorted(slices.Values(slices.Concat(c.want...)))
		var got []string
		for i := range c.typ.NumMethod() {
			got = append(got, c.typ.Method(i).Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s exports %v, want exactly %v", c.typ, got, want)
		}
	}
	if got := sig(mem, "Drop"); got != "func(string) bool" {
		t.Errorf("Repository.Drop is %s: only a log can fail a drop, so the in-memory one returns a bare bool", got)
	}
	if doc := reflect.TypeOf(&Doc{}); doc.NumMethod() != 1 || doc.Method(0).Name != "Version" {
		t.Errorf("Doc exports %d methods, want Version alone", doc.NumMethod())
	}
	for _, name := range reads {
		if a, b := sig(mem, name), sig(follower, name); a != b {
			t.Errorf("FollowerRepository.%s is %q, Repository's %q", name, b, a)
		}
	}
	for _, name := range []string{"Open", "Drop", "Batch", "MultiBatch", "Checkpoint", "Save"} {
		if _, ok := follower.MethodByName(name); ok {
			t.Errorf("FollowerRepository exposes %s", name)
		}
	}
	// The leader's image of its state is a checkpoint, not Save's.
	if _, ok := leader.MethodByName("Save"); ok {
		t.Error("DurableRepository exposes Save")
	}
}

// TestCommitProceedsDuringRetireSweep parks a checkpoint at the start
// of its retire sweep (the afterPack hook) and requires a commit on
// another goroutine to complete meanwhile: the sweep runs after the
// commit lock is released. The commit lands above the new first live
// segment, so the sweep must leave it alone and a reopen must see it.
func TestCommitProceedsDuringRetireSweep(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	seedAndBatch(t, d, 4)
	parked, release := make(chan struct{}), make(chan struct{})
	d.hooks.afterPack = func() {
		close(parked)
		<-release
	}
	ckpt := make(chan error, 1)
	go func() { ckpt <- d.Checkpoint() }()
	select {
	case <-parked:
	case err := <-ckpt:
		t.Fatalf("checkpoint returned before its sweep: %v", err)
	}
	committed := make(chan error, 1)
	go func() {
		_, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), "during-sweep")
			return nil
		})
		committed <- err
	}()
	select {
	case err := <-committed:
		close(release)
		if err != nil {
			t.Fatalf("commit during the retire sweep: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a commit waited on the checkpoint's retire sweep")
	}
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	d.hooks = stepHooks{}
	want := docXML(t, d, "books")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := docXML(t, reopened, "books"); got != want {
		t.Fatalf("recovered state diverged:\n got %v\nwant %v", got, want)
	}
}

// TestDropOfAbsentDocumentIsRefused: a RecDrop that names a document the
// state lacks is a record the state cannot follow, as for every other
// record kind. A follower fed one diverges and falls to position zero,
// and a directory whose log drops one document twice does not recover.
func TestDropOfAbsentDocumentIsRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	seedAndBatch(t, d, 1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	dropOf := func(name string) []byte {
		return appendRecord(nil, record{kind: RecDrop, parts: []recordPart{{name: name}}})
	}

	f, err := OpenFollower(imageDir(t, dir), DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.ApplyRecord(dropOf("absent")); !errors.Is(err, ErrDiverged) {
		t.Fatalf("follower fed a drop of an absent document: %v, want ErrDiverged", err)
	}
	if pos := f.Position(); pos != (wal.Position{}) {
		t.Fatalf("position after the refused drop = %v, want zero", pos)
	}

	if d, err = OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	if ok, err := d.Drop("feeds"); !ok || err != nil {
		t.Fatalf("Drop(feeds) = %v, %v", ok, err)
	}
	if err := d.log.Append(dropOf("feeds")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if r, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1}); !errors.Is(err, ErrReplay) || !errors.Is(err, ErrNotFound) {
		if err == nil {
			r.Close()
		}
		t.Fatalf("recovery of a log that drops feeds twice: %v, want ErrNotFound under ErrReplay", err)
	}
}

// TestLifecycleTakesNoFullPass: Build's labels are the base of every
// session's commit-time verification, so no way the engine makes a
// session — Open, recovery of a crash copy and the records it replays,
// a follower's bootstrap and the records it applies, Load of a Save
// image — walks a whole document, neither then nor at the first commit
// that follows. Every commit is still verified.
func TestLifecycleTakesNoFullPass(t *testing.T) {
	noFull := func(stage string, r *Repository) {
		t.Helper()
		for _, name := range r.Names() {
			if c := counters(t, r, name); c.FullVerifies != 0 || c.Verifies != c.Batches {
				t.Errorf("%s: %q: %d commits, %d verified, %d by the full pass; want every commit verified and none by the full pass",
					stage, name, c.Batches, c.Verifies, c.FullVerifies)
			}
		}
	}
	type batcher = func(string, func(*xmltree.Document, *update.Batch) error) (int, error)
	batchAll := func(stage string, r *Repository, batch batcher) {
		t.Helper()
		for _, name := range r.Names() {
			if _, err := batch(name, appendTo("more")); err != nil {
				t.Fatalf("%s: %q: %v", stage, name, err)
			}
		}
		noFull(stage+", then a batch", r)
	}

	opts := DurableOptions{AutoCheckpointBytes: -1}
	dir := t.TempDir()
	leader, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedAndBatch(t, leader, 1)
	noFull("leader open", leader.repo())
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img, err := leader.BootstrapImage()
	if err != nil {
		t.Fatal(err)
	}
	batchAll("leader checkpoint", leader.repo(), leader.Batch)
	first, _, _ := leader.SegmentRange()
	var records [][]byte
	if _, err := wal.Replay(dir, first, func(payload []byte) error {
		records = append(records, append([]byte(nil), payload...))
		return nil
	}); err != nil || len(records) == 0 {
		t.Fatalf("%d records past the checkpoint: %v", len(records), err)
	}

	rec, err := OpenDurable(imageDir(t, dir), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if c := counters(t, rec.repo(), "books"); c.Batches == 0 {
		t.Fatal("recovery replayed no batch of books")
	}
	noFull("recovery", rec.repo())
	batchAll("recovery", rec.repo(), rec.Batch)

	f, err := OpenFollower(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.InstallBootstrap(img); err != nil {
		t.Fatal(err)
	}
	noFull("follower bootstrap", f.repo())
	for _, payload := range records {
		if err := f.ApplyRecord(payload); err != nil {
			t.Fatal(err)
		}
	}
	noFull("follower apply", f.repo())

	mem := testRepo(t)
	batchAll("open", mem, mem.Batch)
	data, err := mem.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	noFull("load", loaded)
	batchAll("load", loaded, loaded.Batch)
}
