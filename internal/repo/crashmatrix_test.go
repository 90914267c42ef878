package repo

// The crash matrix: systematic fault injection at every externally
// visible step of a checkpoint and at every byte-offset class of the
// write-ahead log tail. Each injected crash is simulated by imaging
// the repository directory (a crash preserves exactly the bytes that
// reached the filesystem) and recovering the image with OpenDurable,
// asserting the recovered state equals the committed oracle. This
// replaces the hand-enumerated kill-during-checkpoint tests: instead
// of picking interesting moments by hand, the matrix derives them
// from the checkpoint's own step structure (via the per-repository
// stepHooks seams)
// and from the log's own frame boundaries.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xmldyn/internal/encoding"
	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// imageDir copies every regular file in src into a fresh directory —
// the state a crash at this instant would leave on disk (durable
// (grouped) sync means every committed record is already durable).
func imageDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// ownRecords lists the documents whose records the current pack of dir
// holds itself: the ones its checkpoint wrote.
func ownRecords(t testing.TB, dir string) []string {
	t.Helper()
	pack, _, err := store.ReadPacks(dir)
	if err != nil {
		t.Fatal(err)
	}
	var own []string
	for _, e := range pack.Docs {
		if e.Ref.Gen == pack.Gen {
			own = append(own, e.Name)
		}
	}
	return own
}

// crashStateXML captures the label-independent observable state: every
// document's serialised tree, by name. Snapshot-based recovery
// relabels, so the crash matrix compares this form.
func crashStateXML(t *testing.T, d *DurableRepository) map[string]string {
	t.Helper()
	state := map[string]string{}
	for _, name := range d.Names() {
		state[name] = docXML(t, d, name)
	}
	return state
}

// recoverImage recovers dir at one end of recovery's worker bound:
// parallelism 0 is OpenDurable as shipped (GOMAXPROCS workers), anything
// else the serial reference it is held to — same state, one worker.
func recoverImage(dir string, parallelism int) (*DurableRepository, error) {
	opts := DurableOptions{AutoCheckpointBytes: -1}
	if parallelism == 0 {
		return OpenDurable(dir, opts)
	}
	d := &DurableRepository{durableCore: durableCore{dir: dir, opts: opts, serialRecovery: true}}
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// assertImageRecovers opens a crash image at the given recovery
// parallelism and asserts the recovered state equals want.
func assertImageRecovers(t *testing.T, label, dir string, parallelism int, want map[string]string) {
	t.Helper()
	rec, err := recoverImage(dir, parallelism)
	if err != nil {
		t.Fatalf("%s (parallelism %d): recovery failed: %v", label, parallelism, err)
	}
	defer rec.Close()
	got := crashStateXML(t, rec)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (parallelism %d): recovered state diverged:\n got %v\nwant %v", label, parallelism, got, want)
	}
	for name := range got {
		if err := rec.Verify(name); err != nil {
			t.Fatalf("%s (parallelism %d): verify %q: %v", label, parallelism, name, err)
		}
	}
}

// TestCrashMatrixCheckpointSteps crashes an incremental checkpoint at
// every externally visible step — after the cut, after the pack switch
// (before retirement), after the checkpoint — plus a post-cut commit
// injected between the cut and the encode, so both packs must replay
// the fresh segment. Every image must recover, serially and in
// parallel, to the state committed at that instant.
func TestCrashMatrixCheckpointSteps(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Scripted history: three documents, single-doc batches, a
	// cross-document transaction, then a first (full) checkpoint. b is
	// the largest, so its record alone keeps the first pack more than
	// half live below.
	for _, n := range []string{"a", "b", "c"} {
		seed := "<seed/>"
		if n == "b" {
			seed = strings.Repeat("<keep/>", 40)
		}
		if err := d.Open(n, mustParse(t, fmt.Sprintf(`<%s>%s</%s>`, n, seed, n)), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), fmt.Sprintf("a%d", i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.MultiBatch([]string{"a", "b"}, func(m map[string]*MultiDoc) error {
		m["a"].Batch().AppendChild(m["a"].Document().Root(), "xa")
		m["b"].Batch().AppendChild(m["b"].Document().Root(), "xb")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint history: drop one document, touch exactly one
	// other — so the crashing checkpoint below is incremental (one
	// dirty document, one reused entry, one dropped).
	if _, err := d.Drop("c"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "post")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	oracle := crashStateXML(t, d)

	type image struct {
		label string
		dir   string
		want  map[string]string
	}
	var images []image
	var oracleCut map[string]string
	d.hooks.afterCut = func() {
		images = append(images, image{"after-cut", imageDir(t, dir), oracle})
		// A commit between the cut and the switch lands in the fresh
		// segment: a crash on either side of the switch must replay it
		// (old pack: contiguous extension; new pack: its range).
		if _, err := d.Batch("b", func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), "cutmark")
			return nil
		}); err != nil {
			t.Fatalf("post-cut commit: %v", err)
		}
		oracleCut = crashStateXML(t, d)
		images = append(images, image{"after-cut+commit", imageDir(t, dir), oracleCut})
	}
	d.hooks.afterPack = func() {
		// The switch landed but nothing is retired yet: dead segments
		// are still on disk as orphans the recovery sweep must
		// tolerate.
		images = append(images, image{"after-pack", imageDir(t, dir), oracleCut})
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.hooks = stepHooks{}
	if got := ownRecords(t, dir); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("incremental checkpoint wrote the records of %v, want [a] (only %q moved)", got, "a")
	}
	images = append(images, image{"after-checkpoint", imageDir(t, dir), oracleCut})

	for _, img := range images {
		for _, par := range []int{-1, 0} {
			t.Run(fmt.Sprintf("%s/parallelism=%d", img.label, par), func(t *testing.T) {
				t.Parallel()
				assertImageRecovers(t, img.label, imageDir(t, img.dir), par, img.want)
			})
		}
	}
}

// TestCrashMatrixWALTail crashes recovery at every byte-offset class
// of the log tail: each record boundary of the last segment, partial
// frame headers, partial payloads, a flipped checksum byte, trailing
// garbage, and the short-header shapes a crashed segment rotation
// leaves. The workload spans a rotation, and the oracle is the
// per-record history: a tail truncated inside record k+1 must recover
// exactly the state after record k (the committed prefix property).
// No checkpoint is involved, so recovery is pure replay and the
// comparison can use the full label tables.
func TestCrashMatrixWALTail(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// The workload rotates once, by hand, so the last segment holds the
	// same two records whatever the earlier ones encode to; durable
	// (grouped) sync, the default, means every record is on disk when
	// captured.
	d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1, SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	type point struct {
		seg    uint64
		size   int64
		tables map[string][]encoding.Row
	}
	var history []point
	capture := func() {
		t.Helper()
		_, active, ok := d.SegmentRange()
		if !ok {
			t.Fatal("segment range unavailable")
		}
		fi, err := os.Stat(filepath.Join(dir, wal.SegmentName(active)))
		if err != nil {
			t.Fatal(err)
		}
		tables := map[string][]encoding.Row{}
		for _, n := range d.Names() {
			tables[n] = docTable(t, d, n)
		}
		history = append(history, point{seg: active, size: fi.Size(), tables: tables})
	}

	capture() // the empty bootstrap state, before any record
	if err := d.Open("a", mustParse(t, `<a><seed/></a>`), "qed"); err != nil {
		t.Fatal(err)
	}
	capture()
	for i := 0; i < 6; i++ {
		if _, err := d.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), fmt.Sprintf("n%d", i)).
				SetAttr(doc.Root(), "count", fmt.Sprint(i+1))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		capture()
	}
	if err := d.Open("b", mustParse(t, `<b/>`), "deweyid"); err != nil {
		t.Fatal(err)
	}
	capture()
	if _, err := d.log.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.MultiBatch([]string{"a", "b"}, func(m map[string]*MultiDoc) error {
		m["a"].Batch().AppendChild(m["a"].Document().Root(), "xa")
		m["b"].Batch().AppendChild(m["b"].Document().Root(), "xb")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	capture()
	if _, err := d.Batch("b", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "tail")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	capture()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	last := history[len(history)-1]
	if history[0].seg == last.seg {
		t.Fatalf("workload never rotated (all %d records in segment %d)", len(history)-1, last.seg)
	}
	lastPath := wal.SegmentName(last.seg)
	// preRotation is the state holding exactly the records of the
	// sealed segments — what a tail whose header never made it to disk
	// recovers to.
	var preRotation map[string][]encoding.Row
	for _, p := range history {
		if p.seg < last.seg {
			preRotation = p.tables
		}
	}

	check := func(label string, mutate func(t *testing.T, img string), want map[string][]encoding.Row) {
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			img := imageDir(t, dir)
			mutate(t, img)
			rec, err := OpenDurable(img, DurableOptions{AutoCheckpointBytes: -1})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer rec.Close()
			got := map[string][]encoding.Row{}
			for _, n := range rec.Names() {
				got[n] = docTable(t, rec, n)
				if err := rec.Verify(n); err != nil {
					t.Fatalf("verify %q: %v", n, err)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered state diverged:\n got %v\nwant %v", got, want)
			}
		})
	}
	truncate := func(size int64) func(*testing.T, string) {
		return func(t *testing.T, img string) {
			t.Helper()
			if err := os.Truncate(filepath.Join(img, lastPath), size); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Every record boundary of the last segment, and every byte-offset
	// class inside the frame that follows it: a partial frame header,
	// a complete header with no payload (checksum cannot match), and a
	// payload short by one byte.
	for i, p := range history {
		if p.seg != last.seg {
			continue
		}
		check(fmt.Sprintf("boundary@%d", p.size), truncate(p.size), p.tables)
		if i+1 < len(history) && history[i+1].seg == last.seg {
			next := history[i+1]
			for _, off := range []int64{p.size + 1, p.size + wal.FrameHeaderSize, next.size - 1} {
				if off <= p.size || off >= next.size {
					continue
				}
				check(fmt.Sprintf("midframe@%d", off), truncate(off), p.tables)
			}
		}
	}
	// The segment header itself: truncating below it is the shape a
	// crashed segment creation leaves — adopted as an empty torn tail,
	// losing exactly the last segment's records.
	for _, off := range []int64{0, int64(wal.HeaderSize) - 2, int64(wal.HeaderSize)} {
		check(fmt.Sprintf("header@%d", off), truncate(off), preRotation)
	}
	// A flipped byte in the final record fails its checksum: the torn
	// tail discards that record only.
	check("crc-flip", func(t *testing.T, img string) {
		t.Helper()
		path := filepath.Join(img, lastPath)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}, history[len(history)-2].tables)
	// Trailing garbage after the last complete frame is a torn
	// in-flight append: everything committed survives.
	check("trailing-garbage", func(t *testing.T, img string) {
		t.Helper()
		f, err := os.OpenFile(filepath.Join(img, lastPath), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x13, 0x37, 0x00}); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}, last.tables)
	// A crashed rotation one step further: the next segment exists but
	// is empty, or holds only its header. Both are record-free tails;
	// nothing is lost.
	check("rotation-empty-next", func(t *testing.T, img string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(img, wal.SegmentName(last.seg+1)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}, last.tables)
	check("rotation-header-only-next", func(t *testing.T, img string) {
		t.Helper()
		src, err := os.ReadFile(filepath.Join(img, lastPath))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, wal.SegmentName(last.seg+1)), src[:wal.HeaderSize], 0o644); err != nil {
			t.Fatal(err)
		}
	}, last.tables)
}
