package repo

// Incremental-checkpoint coverage: the O(dirty) file-write guarantee,
// a randomized recovery-equivalence property, and the interaction of
// in-memory versioning (SnapshotAt / VersionStats) with checkpoints
// and recovery.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// TestIncrementalCheckpointWritesOnlyDirtyDocs is the tentpole
// guarantee: with 256 live documents and one commit since the last
// checkpoint, the next checkpoint writes exactly ONE snapshot file —
// every other manifest entry reuses the previous generation's file
// byte-for-byte.
func TestIncrementalCheckpointWritesOnlyDirtyDocs(t *testing.T) {
	const docs = 256
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	name := func(i int) string { return fmt.Sprintf("doc%03d", i) }
	for i := 0; i < docs; i++ {
		if err := d.Open(name(i), mustParse(t, fmt.Sprintf(`<d n="%d"><seed/></d>`, i)), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	baseGen := d.Generation()

	countGen := func(gen uint64) int {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("doc-*-%06d.snap", gen)))
		if err != nil {
			t.Fatal(err)
		}
		return len(matches)
	}
	if got := countGen(baseGen); got != docs {
		t.Fatalf("full checkpoint wrote %d files, want %d", got, docs)
	}

	// One commit, one dirty document.
	touched := name(137)
	if _, err := d.Batch(touched, func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "touched")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := docXML(t, d, touched)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	newGen := d.Generation()
	if got := countGen(newGen); got != 1 {
		t.Fatalf("incremental checkpoint wrote %d files at generation %d, want exactly 1", got, newGen)
	}
	if got := countGen(baseGen); got != docs-1 {
		t.Fatalf("%d generation-%d files survive, want %d (only the touched one retired)", got, baseGen, docs-1)
	}
	man, err := store.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Docs) != docs {
		t.Fatalf("manifest has %d entries, want %d", len(man.Docs), docs)
	}
	fresh := 0
	for _, e := range man.Docs {
		switch e.Gen {
		case baseGen:
		case newGen:
			fresh++
			if e.Name != touched {
				t.Fatalf("entry %q carries the new generation; only %q moved", e.Name, touched)
			}
		default:
			t.Fatalf("entry %q at unexpected generation %d", e.Name, e.Gen)
		}
	}
	if fresh != 1 {
		t.Fatalf("%d manifest entries at the new generation, want 1", fresh)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if rec.Len() != docs {
		t.Fatalf("recovered %d documents, want %d", rec.Len(), docs)
	}
	if got := docXML(t, rec, touched); got != want {
		t.Fatalf("touched document diverged:\n got %s\nwant %s", got, want)
	}
	if got, wantSeed := docXML(t, rec, name(0)), `<d n="0"><seed/></d>`; got != wantSeed {
		t.Fatalf("untouched document diverged:\n got %s\nwant %s", got, wantSeed)
	}
}

// TestCheckpointAfterAbortsWritesNothing: aborted transactions make no
// document dirty. A checkpoint that follows only aborts writes no
// doc-*.snap file and its manifest reuses every entry of the previous
// generation (abortRig and abortForms: timetravel_test.go).
func TestCheckpointAfterAbortsWritesNothing(t *testing.T) {
	rig := newAbortRig(t, true, 0)
	d := rig.dur
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapFiles := func() []string {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(rig.dir, "doc-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		return matches
	}
	man, err := store.ReadManifest(rig.dir)
	if err != nil {
		t.Fatal(err)
	}
	files := snapFiles()
	for i := range abortForms {
		mustAbort(t, rig, i)
	}
	wrote := 0
	d.hooks.afterSnapFile = func(string) { wrote++ }
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.hooks = ckptHooks{}
	if wrote != 0 {
		t.Errorf("the checkpoint after three aborts wrote %d snapshot files, want 0", wrote)
	}
	if got := snapFiles(); !reflect.DeepEqual(got, files) {
		t.Errorf("snapshot files after the checkpoint:\n got %v\nwant %v", got, files)
	}
	next, err := store.ReadManifest(rig.dir)
	if err != nil {
		t.Fatal(err)
	}
	if next.Gen != man.Gen+1 || !reflect.DeepEqual(next.Docs, man.Docs) {
		t.Errorf("manifest entries not reused:\n got gen %d %+v\nwant gen %d %+v", next.Gen, next.Docs, man.Gen+1, man.Docs)
	}
}

// TestRecoveryEquivalenceProperty drives random interleavings of
// Open, Drop, Batch, MultiBatch and Checkpoint against a durable
// repository, then recovers from the resulting directory — serially
// and in parallel — and asserts the recovered state is identical to
// the live in-memory state at the moment of the crash. The live state
// is the oracle: durability means recovery reproduces it exactly,
// wherever the checkpoints happened to fall in the history.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	names := []string{"d0", "d1", "d2", "d3", "d4"}
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1, SegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			live := map[string]bool{}
			alive := func() []string {
				var out []string
				for _, n := range names {
					if live[n] {
						out = append(out, n)
					}
				}
				return out
			}
			checkpoints := 0
			for step := 0; step < 48; step++ {
				tag := fmt.Sprintf("s%d", step)
				switch p := rng.Intn(100); {
				case p < 15: // open a missing document
					n := names[rng.Intn(len(names))]
					if live[n] {
						continue
					}
					if err := d.Open(n, mustParse(t, fmt.Sprintf(`<%s at="%s"/>`, n, tag)), "qed"); err != nil {
						t.Fatalf("step %d open %s: %v", step, n, err)
					}
					live[n] = true
				case p < 25: // drop a live document
					a := alive()
					if len(a) == 0 {
						continue
					}
					n := a[rng.Intn(len(a))]
					if _, err := d.Drop(n); err != nil {
						t.Fatalf("step %d drop %s: %v", step, n, err)
					}
					live[n] = false
				case p < 60: // single-document batch
					a := alive()
					if len(a) == 0 {
						continue
					}
					n := a[rng.Intn(len(a))]
					if _, err := d.Batch(n, func(doc *xmltree.Document, b *update.Batch) error {
						root := doc.Root()
						b.AppendChild(root, tag).SetAttr(root, "last", tag)
						if kids := root.Children(); len(kids) > 3 {
							b.Delete(kids[0])
						}
						return nil
					}); err != nil {
						t.Fatalf("step %d batch %s: %v", step, n, err)
					}
				case p < 80: // cross-document transaction
					a := alive()
					if len(a) < 2 {
						continue
					}
					pair := []string{a[rng.Intn(len(a))], a[rng.Intn(len(a))]}
					if _, err := d.MultiBatch(pair, func(m map[string]*MultiDoc) error {
						for _, md := range m {
							md.Batch().AppendChild(md.Document().Root(), "m"+tag)
						}
						return nil
					}); err != nil {
						t.Fatalf("step %d multibatch %v: %v", step, pair, err)
					}
				default: // checkpoint
					if err := d.Checkpoint(); err != nil {
						t.Fatalf("step %d checkpoint: %v", step, err)
					}
					checkpoints++
				}
			}
			oracle := crashStateXML(t, d)
			// Crash: no Close. Recover the same directory at both ends of
			// recovery's worker bound; both must reproduce the oracle.
			for _, par := range []int{-1, 0} {
				rec, err := recoverImage(dir, par)
				if err != nil {
					t.Fatalf("recovery (parallelism %d, %d checkpoints): %v", par, checkpoints, err)
				}
				got := crashStateXML(t, rec)
				if !reflect.DeepEqual(got, oracle) {
					t.Fatalf("recovery (parallelism %d) diverged after %d checkpoints:\n got %v\nwant %v", par, checkpoints, got, oracle)
				}
				for n := range got {
					if err := rec.Verify(n); err != nil {
						t.Fatalf("verify %q: %v", n, err)
					}
				}
				rec.Close()
			}
		})
	}
}

// TestSnapshotAtAcrossRecovery pins the documented boundary between
// versioning and durability: stamps and retained versions are an
// in-memory construct, so recovery RESTARTS the stamp clock, and a
// stamp taken before the crash — even one that worked then — fails
// with ErrVersionEvicted afterwards rather than silently reading the
// wrong state. VersionStats gauges must also settle back to zero
// around a checkpoint: the encode phase pins versions, and a leak
// would show as a permanently raised PinnedVersions.
func TestSnapshotAtAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{AutoCheckpointBytes: -1, Repo: Options{RetainVersions: 3}}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Open("books", mustParse(t, `<lib><seed/></lib>`), "qed"); err != nil {
		t.Fatal(err)
	}
	commit := func(tag string) {
		t.Helper()
		if _, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), tag)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	commit("early")
	// Activate versioning and capture the early stamp.
	s, err := d.Snapshot("books")
	if err != nil {
		t.Fatal(err)
	}
	early := s.Stamps()["books"]
	earlyXML := docXML(t, d, "books")
	s.Close()

	// Within the retained window the early stamp time-travels.
	commit("w1")
	commit("w2")
	at, err := d.SnapshotAt(early, "books")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := at.Document("books")
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.XML(); got != earlyXML {
		t.Fatalf("time travel diverged:\n got %s\nwant %s", got, earlyXML)
	}
	at.Close()

	// A checkpoint pins each dirty version while encoding; afterwards
	// the gauges must be back where they were — no pin leak.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if vs := d.VersionStats(); vs.OpenSnapshots != 0 || vs.PinnedVersions != 0 {
		t.Fatalf("gauges did not settle after checkpoint: %+v", vs)
	}

	// Push the early stamp out of the retained window, then crash.
	commit("w3")
	commit("w4")
	commit("w5")
	commit("w6")
	if _, err := d.SnapshotAt(early, "books"); !errors.Is(err, ErrVersionEvicted) {
		t.Fatalf("evicted stamp pre-crash: err = %v, want ErrVersionEvicted", err)
	}
	preCrash := d.Stamp()
	want := docXML(t, d, "books")

	rec, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if got := docXML(t, rec, "books"); got != want {
		t.Fatalf("recovered state diverged:\n got %s\nwant %s", got, want)
	}
	// The stamp clock restarted: only the commits replayed from the
	// post-checkpoint log advanced it.
	if restarted := rec.Stamp(); restarted >= preCrash {
		t.Fatalf("stamp clock did not restart: %d >= pre-crash %d", restarted, preCrash)
	}
	// The pre-crash stamp is meaningless now; the window is gone and
	// the request must fail loudly, not read an arbitrary state.
	if _, err := rec.SnapshotAt(early, "books"); !errors.Is(err, ErrVersionEvicted) {
		t.Fatalf("pre-crash stamp after recovery: err = %v, want ErrVersionEvicted", err)
	}
	// Stamps at or above the restarted clock read the current state —
	// the documented "future stamps mean now" semantics.
	cur, err := rec.SnapshotAt(rec.Stamp()+1000, "books")
	if err != nil {
		t.Fatal(err)
	}
	tree, err = cur.Document("books")
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.XML(); got != want {
		t.Fatalf("future-stamp snapshot diverged:\n got %s\nwant %s", got, want)
	}
	cur.Close()
	if vs := rec.VersionStats(); vs.OpenSnapshots != 0 || vs.PinnedVersions != 0 {
		t.Fatalf("gauges did not settle after recovery reads: %+v", vs)
	}
}
