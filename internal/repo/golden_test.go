package repo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// updateGolden regenerates testdata/golden-wal-00000001.log. The log
// format is frozen: regenerate only in a change that means to alter
// the bytes on disk.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden WAL fixture from the current code")

const goldenWAL = "testdata/golden-wal-00000001.log"

// goldenOpts keeps the whole script in segment 1, every record on disk
// when its call returns.
var goldenOpts = DurableOptions{Sync: wal.SyncPerCommit, SegmentBytes: -1, AutoCheckpointBytes: -1}

// goldenScript drives one call of every logged kind, and every kind
// that must log nothing, through the leader's public API.
func goldenScript(t *testing.T, d *DurableRepository) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.Open("alpha", mustParse(t, `<a><x id="1"/><y>why</y></a>`), "qed"))
	must(d.Open("beta", mustParse(t, `<b><k/>text</b>`), "deweyid"))
	_, err := d.Batch("alpha", func(doc *xmltree.Document, b *update.Batch) error {
		kids := doc.Root().Children()
		b.AppendChild(doc.Root(), "z").SetAttr(kids[0], "id", "2").Delete(kids[1])
		return nil
	})
	must(err)
	var k *xmltree.Node
	must(d.View("beta", func(s *update.Session) error {
		k = s.Document().Root().Children()[0]
		return nil
	}))
	_, err = d.Update("beta", update.InsertAfterOp(k, "l"), update.SetTextOp(k, "kay"), update.RenameOp(k, "kk"))
	must(err)
	_, err = d.MultiBatch([]string{"beta", "alpha"}, func(m map[string]*MultiDoc) error {
		a, b := m["alpha"], m["beta"]
		moved := b.Document().Root().Children()[1]
		b.Batch().Delete(moved)
		a.Batch().AppendSubtree(a.Document().Root(), moved.Clone()).InsertFirstChild(a.Document().Root(), "first")
		return nil
	})
	must(err)
	_, err = d.MultiBatch([]string{"alpha", "beta"}, func(m map[string]*MultiDoc) error {
		m["beta"].Batch().AppendChild(m["beta"].Document().Root(), "solo")
		return nil
	})
	must(err)
	_, err = d.Batch("alpha", func(*xmltree.Document, *update.Batch) error { return nil })
	must(err)
	existed, err := d.Drop("beta")
	must(err)
	if !existed {
		t.Fatal("drop of beta reported it missing")
	}
}

// The bytes the leader writes for a fixed call sequence are frozen in a
// fixture, and the fixture means the same documents whether recovery
// replays it or a follower streams it.
func TestGoldenWALBytes(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	goldenScript(t, d)
	want := crashStateXML(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, wal.SegmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenWAL, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("segment 1 differs from %s:\n got %x\nwant %x", goldenWAL, got, golden)
	}

	// Recovery replay of the fixture.
	replayDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(replayDir, wal.SegmentName(1)), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteManifest(replayDir, store.Manifest{Gen: 1, WALFirst: 1}); err != nil {
		t.Fatal(err)
	}
	assertImageRecovers(t, "golden fixture", replayDir, 1, want)

	// The fixture streamed record by record into a follower installed
	// on an empty generation-1 directory.
	followerDir := t.TempDir()
	fresh, err := OpenDurable(followerDir, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFollower(followerDir, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := wal.Replay(replayDir, 1, f.ApplyRecord); err != nil {
		t.Fatal(err)
	}
	if state := followerStateXML(t, f); !reflect.DeepEqual(state, want) {
		t.Fatalf("follower streamed the fixture to different documents:\n got %v\nwant %v", state, want)
	}
	mirrored, err := os.ReadFile(filepath.Join(followerDir, wal.SegmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mirrored, golden) {
		t.Fatalf("follower's segment 1 is not a byte-identical mirror of the fixture")
	}
}

// checkpointSnapshotDigest is the SHA-256 of the document snapshot
// files TestCheckpointSnapshotBytes writes, taken from the code before
// checkpoints encoded from the persistent root: that change must not
// move a byte. Snapshot files are as frozen as the log.
const checkpointSnapshotDigest = "69d9ac9dae61fc94a52dd2432192be3a6374da8408db1fad5e74804ba5705f18"

// A checkpoint encodes each dirty document from its pinned version's
// persistent tree. The bytes must be the ones the live tree encodes
// to, whether or not readers have materialised the version's view
// first, and the ones the previous encoder (a walk of the view) wrote.
func TestCheckpointSnapshotBytes(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	goldenScript(t, d)
	big := xmltree.Generate(xmltree.GenOptions{Seed: 3, MaxDepth: 8, MaxChildren: 6, AttrProb: 0.4, TextProb: 0.6, TargetNodes: 1500})
	if err := d.Open("gamma", big, "ordpath"); err != nil {
		t.Fatal(err)
	}
	// alpha's version has a partly materialised view, gamma's none.
	snap, err := d.Snapshot("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Query("alpha", "//z"); err != nil {
		t.Fatal(err)
	}
	snap.Close()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man, err := store.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Docs) != 2 {
		t.Fatalf("manifest lists %d documents, want alpha and gamma", len(man.Docs))
	}
	sum := sha256.New()
	for _, e := range man.Docs {
		got, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		if err := d.View(e.Name, func(s *update.Session) error {
			scheme, _ := d.Scheme(e.Name)
			want = store.MarshalDocSnap(store.DocSnap{Name: e.Name, Scheme: scheme, Tree: update.EncodeDocTree(s.Document())})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: checkpointed %d bytes, the live tree encodes to %d different ones", e.File, len(got), len(want))
		}
		sum.Write(got)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != checkpointSnapshotDigest {
		t.Fatalf("document snapshot bytes moved: digest %s, want %s", got, checkpointSnapshotDigest)
	}
}
