package repo

// Bootstrap kill-point matrix for the follower: a crash is injected
// after every externally visible step of InstallBootstrap (the wipe of
// the old segments and packs, each older pack of the image, the fresh
// log, the pack switch) by imaging the directory at that instant. Every
// image must recover along the documented path — either it opens
// directly (empty before any pack of the image lands; the new state
// after the switch) or it fails with ErrReplay and, after
// WipeFollowerState, reaches the leader's state via a fresh bootstrap.
// No image may open silently wrong.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// followerStateXML captures every document's serialised tree on a
// follower, via a snapshot.
func followerStateXML(t testing.TB, f *FollowerRepository) map[string]string {
	t.Helper()
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	out := map[string]string{}
	for _, name := range snap.Names() {
		doc, err := snap.Document(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = doc.XML()
	}
	return out
}

func TestFollowerBootstrapKillPoints(t *testing.T) {
	t.Parallel()
	// Leader history: checkpoint 1 (the follower's installed base),
	// more commits, checkpoint 2 (the image being installed when the
	// crash hits).
	leaderDir := t.TempDir()
	leader, err := OpenDurable(leaderDir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedAndBatch(t, leader, 4)
	// A document no later commit touches, large enough that the first
	// checkpoint's pack stays referenced: the second image holds an
	// older pack beside its current one.
	if err := leader.Open("shelf", mustParse(t, "<shelf>"+strings.Repeat("<item>unchanged</item>", 20)+"</shelf>"), "qed"); err != nil {
		t.Fatal(err)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img1, err := store.LoadBootstrapImage(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := leader.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), fmt.Sprintf("extra%d", i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img2, err := store.LoadBootstrapImage(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	want := crashStateXML(t, leader)

	// A follower with checkpoint 1 installed; then crash the install of
	// checkpoint 2 at every step.
	opts := DurableOptions{AutoCheckpointBytes: -1}
	fdir := t.TempDir()
	f, err := OpenFollower(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstallBootstrap(img1); err != nil {
		t.Fatal(err)
	}

	type killPoint struct{ label, dir string }
	var points []killPoint
	packCount := 0
	f.hooks.afterSegments = func() {
		points = append(points, killPoint{"after segment wipe", imageDir(t, fdir)})
	}
	f.hooks.afterPackFile = func(file string) {
		packCount++
		points = append(points, killPoint{fmt.Sprintf("after pack file %d (%s)", packCount, file), imageDir(t, fdir)})
	}
	f.hooks.afterWAL = func() {
		points = append(points, killPoint{"after fresh log", imageDir(t, fdir)})
	}
	f.hooks.afterPack = func() {
		points = append(points, killPoint{"after pack switch", imageDir(t, fdir)})
	}
	if err := f.InstallBootstrap(img2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 || packCount == 0 {
		t.Fatalf("only %d kill points captured, %d of them older packs", len(points), packCount)
	}

	for _, kp := range points {
		t.Run(kp.label, func(t *testing.T) {
			t.Parallel()
			rec, err := OpenFollower(kp.dir, opts)
			if err != nil {
				// The documented unrecoverable window (a pack whose first
				// live segment is gone): must be exactly ErrReplay, and
				// the wipe path must yield a working empty follower.
				if !errors.Is(err, ErrReplay) {
					t.Fatalf("open failed with %v, want ErrReplay", err)
				}
				if err := WipeFollowerState(kp.dir); err != nil {
					t.Fatalf("wipe: %v", err)
				}
				if rec, err = OpenFollower(kp.dir, opts); err != nil {
					t.Fatalf("open after wipe: %v", err)
				}
				if n := rec.Len(); n != 0 {
					t.Fatalf("wiped follower still holds %d documents", n)
				}
			}
			// The catch-up protocol's first step from any surviving state
			// is a fresh bootstrap; after it the replica must equal the
			// leader.
			if err := rec.InstallBootstrap(img2); err != nil {
				t.Fatalf("re-bootstrap: %v", err)
			}
			if got := followerStateXML(t, rec); !reflect.DeepEqual(got, want) {
				t.Fatalf("state after re-bootstrap diverged:\n got %v\nwant %v", got, want)
			}
			for _, name := range rec.Names() {
				if err := rec.Verify(name); err != nil {
					t.Fatalf("verify %q: %v", name, err)
				}
			}
			if err := rec.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}

// TestBootstrapImageDuringCheckpoints takes images while a writer
// commits and checkpoints in a loop. The writer moves only the last of
// 64 documents, so every checkpoint writes a new pack that references
// an older one, and a checkpoint that could switch and sweep mid-read
// would retire a pack under the reader. BootstrapImage reads under the
// checkpoint lock, so every image is whole: it holds exactly the packs
// its current pack references, every entry's record decoding under its
// name, and the last one installs into a fresh follower, which recovers
// it.
func TestBootstrapImageDuringCheckpoints(t *testing.T) {
	var names []string
	for i := 0; i < 64; i++ {
		names = append(names, fmt.Sprintf("d%02d", i))
	}
	leader, err := OpenDurable(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for _, n := range names {
		if err := leader.Open(n, mustParse(t, fmt.Sprintf(`<%s/>`, n)), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			_, err := leader.Batch(names[len(names)-1], func(doc *xmltree.Document, b *update.Batch) error {
				b.AppendChild(doc.Root(), fmt.Sprintf("c%d", i))
				return nil
			})
			if err == nil {
				err = leader.Checkpoint()
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()
	finish := sync.OnceValue(func() error { close(stop); return <-done })
	defer finish()

	var img store.BootstrapImage
	want := map[string]string{}
	// Images back to back, at least 50 and across at least 20
	// checkpoints, so the checkpoints' switches and sweeps land while
	// images are being read.
	first := leader.Generation()
	for i := 0; i < 50 || leader.Generation() < first+20; i++ {
		if img, err = leader.BootstrapImage(); err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if len(img.Manifest.Docs) != len(names) {
			t.Fatalf("image %d has %d entries, want %d", i, len(img.Manifest.Docs), len(names))
		}
		packs := map[uint64][]byte{img.Manifest.Gen: img.Raw}
		for _, file := range img.Files {
			gen, _ := store.ParsePackName(file.Name)
			packs[gen] = file.Data
		}
		referenced := map[uint64]bool{img.Manifest.Gen: true}
		clear(want)
		for _, e := range img.Manifest.Docs {
			referenced[e.Ref.Gen] = true
			snap, err := store.UnmarshalRecord(packs[e.Ref.Gen], e)
			if err != nil {
				t.Fatalf("image %d: %s: %v", i, e.Name, err)
			}
			doc, err := update.DecodeDocTree(snap.Tree)
			if err != nil {
				t.Fatalf("image %d: %s: %v", i, e.Name, err)
			}
			want[e.Name] = doc.XML()
		}
		if len(referenced) != len(packs) {
			t.Fatalf("image %d holds %d packs, its entries reference %d", i, len(packs), len(referenced))
		}
	}
	if err := finish(); err != nil {
		t.Fatalf("commit and checkpoint loop: %v", err)
	}

	opts := DurableOptions{AutoCheckpointBytes: -1}
	fdir := t.TempDir()
	f, err := OpenFollower(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstallBootstrap(img); err != nil {
		t.Fatal(err)
	}
	if got := followerStateXML(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("installed state diverged from the image:\n got %v\nwant %v", got, want)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenFollower(fdir, opts)
	if err != nil {
		t.Fatalf("recovery of the installed image: %v", err)
	}
	defer rec.Close()
	if got := followerStateXML(t, rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverged from the image:\n got %v\nwant %v", got, want)
	}
}

// TestFollowerFailedInstallLeavesNoInstalledState pins the regression:
// an InstallBootstrap that fails after it has destroyed the old state
// (here: an image whose current pack fails its checksum, so the reload
// rejects it once the pack is already on disk) must not leave
// the follower appending to the old, unlinked log. It ends with no
// installed state, exactly like a fresh directory — stream records are
// refused, the position is zero so the next Hello forces a bootstrap —
// and a good image then installs over the debris.
func TestFollowerFailedInstallLeavesNoInstalledState(t *testing.T) {
	t.Parallel()
	leaderDir := t.TempDir()
	leader, err := OpenDurable(leaderDir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedAndBatch(t, leader, 3)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	good, err := store.LoadBootstrapImage(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	want := crashStateXML(t, leader)

	f, err := OpenFollower(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.InstallBootstrap(good); err != nil {
		t.Fatal(err)
	}
	if f.Position() == (wal.Position{}) {
		t.Fatal("installed follower reports the zero position")
	}

	bad := good
	bad.Raw = append([]byte(nil), good.Raw...)
	bad.Raw[len(bad.Raw)/2] ^= 0xFF
	if err := f.InstallBootstrap(bad); !errors.Is(err, ErrReplay) {
		t.Fatalf("install of a corrupt image: %v, want ErrReplay", err)
	}
	record := appendRecord(nil, record{kind: RecDrop, parts: []recordPart{{name: "books"}}})
	if err := f.ApplyRecord(record); !errors.Is(err, errNotInstalled) {
		t.Fatalf("ApplyRecord after a failed install: %v, want bootstrap-required", err)
	}
	if err := f.BeginSegment(good.Manifest.WALFirst + 1); !errors.Is(err, errNotInstalled) {
		t.Fatalf("BeginSegment after a failed install: %v, want bootstrap-required", err)
	}
	if pos := f.Position(); pos != (wal.Position{}) {
		t.Fatalf("position after a failed install = %v, want zero", pos)
	}
	if n, gen := f.Len(), f.Generation(); n != 0 || gen != 0 {
		t.Fatalf("failed install left %d documents at generation %d, want an empty follower", n, gen)
	}

	if err := f.InstallBootstrap(good); err != nil {
		t.Fatalf("re-bootstrap over the failed install: %v", err)
	}
	if got := followerStateXML(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after re-bootstrap diverged:\n got %v\nwant %v", got, want)
	}
}

// TestInstallBootstrapRefusesForeignFiles: an image's older files come
// off the wire, so one that is not a pack older than the image's
// current one — a path outside the directory, the current pack's own
// name — is refused with ErrCorrupt before anything is destroyed: the
// follower keeps serving its installed state.
func TestInstallBootstrapRefusesForeignFiles(t *testing.T) {
	t.Parallel()
	leaderDir := t.TempDir()
	leader, err := OpenDurable(leaderDir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedAndBatch(t, leader, 2)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	good, err := store.LoadBootstrapImage(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	want := crashStateXML(t, leader)
	f, err := OpenFollower(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.InstallBootstrap(good); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../escape.pack", store.PackName(good.Manifest.Gen), "wal-00000001.log"} {
		bad := good
		bad.Files = []store.BootstrapFile{{Name: name, Data: []byte("x")}}
		if err := f.InstallBootstrap(bad); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("image with file %q: %v, want ErrCorrupt", name, err)
		}
		if got := followerStateXML(t, f); !reflect.DeepEqual(got, want) || f.Position() == (wal.Position{}) {
			t.Fatalf("a refused image with file %q changed the installed state", name)
		}
	}
}

// TestFollowerRejectsNonContiguousSegment pins the regression: a
// segment boundary that is not exactly active+1 must be rejected with
// wal.ErrMissingSegment (wrapped), and the error must name both the
// expected and the received segment.
func TestFollowerRejectsNonContiguousSegment(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := OpenDurable(leaderDir, DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedAndBatch(t, leader, 2)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img, err := store.LoadBootstrapImage(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenFollower(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.InstallBootstrap(img); err != nil {
		t.Fatal(err)
	}
	active := img.Manifest.WALFirst
	if err := f.BeginSegment(active + 2); err == nil {
		t.Fatal("skipping a segment index was accepted")
	} else if !errors.Is(err, wal.ErrMissingSegment) {
		t.Fatalf("gap error = %v, want wal.ErrMissingSegment", err)
	} else {
		msg := err.Error()
		for _, part := range []string{"expected", "found"} {
			if !strings.Contains(msg, part) {
				t.Fatalf("gap error %q does not report %s segment", msg, part)
			}
		}
	}
	// The follower is still usable after rejecting: the correct next
	// index is accepted.
	if err := f.BeginSegment(active + 1); err != nil {
		t.Fatalf("contiguous boundary rejected after a gap attempt: %v", err)
	}
}
