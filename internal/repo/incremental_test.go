package repo

// Incremental-checkpoint coverage: the O(dirty) record-write guarantee,
// compaction's bound on dead pack bytes, a randomized
// recovery-equivalence property, and the interaction of
// in-memory versioning (Snapshot / VersionStats) with checkpoints
// and recovery.

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// dirNames lists the names in dir, sorted.
func dirNames(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestIncrementalCheckpointWritesOnlyDirtyDocs is the incremental
// guarantee: with 256 live documents and one commit since the last
// checkpoint, the next checkpoint writes ONE record — every other entry
// references the previous generation's record — and adds exactly one
// file besides its fresh segment: its pack.
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
	if got := len(ownRecords(t, dir)); got != docs {
		t.Fatalf("full checkpoint wrote %d records, want %d", got, docs)
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
	before := dirNames(t, dir)
	_, active, _ := d.SegmentRange()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	newGen := d.Generation()
	if got := ownRecords(t, dir); !reflect.DeepEqual(got, []string{touched}) {
		t.Fatalf("incremental checkpoint wrote the records of %v at generation %d, want [%s]", got, newGen, touched)
	}
	var added []string
	for _, name := range dirNames(t, dir) {
		if !slices.Contains(before, name) {
			added = append(added, name)
		}
	}
	if want := []string{store.PackName(newGen), wal.SegmentName(active + 1)}; !reflect.DeepEqual(added, want) {
		t.Fatalf("the checkpoint added %v to the directory, want its pack and its fresh segment %v", added, want)
	}
	man, _, err := store.ReadPacks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Docs) != docs {
		t.Fatalf("pack has %d entries, want %d", len(man.Docs), docs)
	}
	fresh := 0
	for _, e := range man.Docs {
		switch e.Ref.Gen {
		case baseGen:
		case newGen:
			fresh++
			if e.Name != touched {
				t.Fatalf("entry %q carries the new generation; only %q moved", e.Name, touched)
			}
		default:
			t.Fatalf("entry %q at unexpected generation %d", e.Name, e.Ref.Gen)
		}
	}
	if fresh != 1 {
		t.Fatalf("%d entries at the new generation, want 1", fresh)
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

// TestCheckpointAfterRestartRewritesOnlyReplayedDocs: after a crash, a
// document recovery loads from its record and replay leaves untouched
// is clean, so the first checkpoint after the restart references its
// record. Only the documents the log moved are rewritten: one a batch
// changed, and one dropped and opened again under the same name — a new
// document, whatever its version sequence says.
func TestCheckpointAfterRestartRewritesOnlyReplayedDocs(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	dir := t.TempDir()
	opts := DurableOptions{AutoCheckpointBytes: -1}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, n := range names {
		if err := d.Open(n, mustParse(t, fmt.Sprintf(`<%s><seed/></%s>`, n, n)), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "moved")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Drop("b"); err != nil {
		t.Fatal(err)
	}
	if err := d.Open("b", mustParse(t, `<b><reopened/></b>`), "qed"); err != nil {
		t.Fatal(err)
	}
	oracle := crashStateXML(t, d)
	before, _, err := store.ReadPacks(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Crash: no Close.
	rec, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if got := crashStateXML(t, rec); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("recovered state diverged:\n got %v\nwant %v", got, oracle)
	}
	if err := rec.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _, err := store.ReadPacks(dir)
	if err != nil {
		t.Fatal(err)
	}
	prev := map[string]store.PackDoc{}
	for _, e := range before.Docs {
		prev[e.Name] = e
	}
	var rewritten []string
	for _, e := range after.Docs {
		if e.Ref.Gen == after.Gen {
			rewritten = append(rewritten, e.Name)
		} else if e != prev[e.Name] {
			t.Errorf("clean entry %+v changed, was %+v", e, prev[e.Name])
		}
	}
	if len(after.Docs) != len(names) || !reflect.DeepEqual(rewritten, []string{"a", "b"}) {
		t.Fatalf("%d entries, rewritten %v; want %d entries, rewritten [a b]", len(after.Docs), rewritten, len(names))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("recovery after the checkpoint: %v", err)
	}
	defer again.Close()
	if got := crashStateXML(t, again); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("state after the checkpoint diverged:\n got %v\nwant %v", got, oracle)
	}
}

// TestCheckpointAfterAbortsWritesNothing: aborted transactions make no
// document dirty. A checkpoint that follows only aborts writes no
// record: its pack references every record of the previous generation
// (abortRig and abortForms: abort_test.go).
func TestCheckpointAfterAbortsWritesNothing(t *testing.T) {
	rig := newAbortRig(t, true)
	d := rig.dur
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man, _, err := store.ReadPacks(rig.dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range abortForms {
		mustAbort(t, rig, i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := ownRecords(t, rig.dir); len(got) != 0 {
		t.Errorf("the checkpoint after three aborts wrote the records of %v, want none", got)
	}
	next, _, err := store.ReadPacks(rig.dir)
	if err != nil {
		t.Fatal(err)
	}
	if next.Gen != man.Gen+1 || !reflect.DeepEqual(next.Docs, man.Docs) {
		t.Errorf("entries not reused:\n got gen %d %+v\nwant gen %d %+v", next.Gen, next.Docs, man.Gen+1, man.Docs)
	}
}

// TestCheckpointCompactsHalfDeadPacks: 64 documents, Zipf(1.2) commits
// and 30 checkpoints. Hot documents leave the older packs behind, and a
// pack whose live records fall below half its size is compacted, so
// after every checkpoint the packs on disk are the current one and the
// packs it references, no more; their bytes are at most twice the bytes
// of the records the current pack's entries name; and a crash copy
// recovers to the leader's state.
func TestCheckpointCompactsHalfDeadPacks(t *testing.T) {
	const docs = 64
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	name := func(i uint64) string { return fmt.Sprintf("d%02d", i) }
	for i := range uint64(docs) {
		if err := d.Open(name(i), mustParse(t, fmt.Sprintf(`<d n="%d"><seed/></d>`, i)), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, docs-1)
	compacted := 0
	for c := 0; c < 30; c++ {
		touched := map[string]bool{}
		for range 20 {
			n := name(zipf.Uint64())
			touched[n] = true
			if _, err := d.Batch(n, func(doc *xmltree.Document, b *update.Batch) error {
				b.AppendChild(doc.Root(), fmt.Sprintf("c%d", c))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		pack, packs, err := store.ReadPacks(dir)
		if err != nil {
			t.Fatal(err)
		}
		var live, onDisk int64
		for _, e := range pack.Docs {
			live += int64(e.Ref.Len)
			if c > 0 && e.Ref.Gen == pack.Gen && !touched[e.Name] {
				compacted++ // a clean document, rewritten to retire its old pack
			}
		}
		for _, file := range dirNames(t, dir) {
			gen, ok := store.ParsePackName(file)
			if !ok {
				continue
			}
			if _, ok := packs[gen]; !ok {
				t.Fatalf("checkpoint %d: %s is neither the current pack nor referenced by it", c, file)
			}
			onDisk += int64(len(packs[gen]))
		}
		if onDisk > 2*live {
			t.Fatalf("checkpoint %d: %d pack bytes on disk for %d live record bytes", c, onDisk, live)
		}
		assertImageRecovers(t, fmt.Sprintf("checkpoint %d", c), imageDir(t, dir), 0, crashStateXML(t, d))
	}
	if compacted == 0 {
		t.Fatal("no checkpoint compacted a pack")
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
