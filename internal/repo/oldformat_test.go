package repo_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"xmldyn"
	"xmldyn/internal/labels"
	"xmldyn/internal/replica"
	"xmldyn/internal/repo"
	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
)

// v1Segment is the golden segment 1 the leader wrote while the log
// carried version 1 and trees in the grammar before the compact one;
// v2Segment the one it wrote while the log carried version 2 and
// spelt every name in full; v3Segment the one of version 3, which
// addressed every op's target by its path.
const (
	v1Segment = "testdata/v1-wal-00000001.log"
	v2Segment = "testdata/v2-wal-00000001.log"
	v3Segment = "testdata/v3-wal-00000001.log"
)

// sealed appends the trailer store seals every record with: the FNV-1a
// 64 checksum of everything before it.
func sealed(out []byte) []byte {
	h := fnv.New64a()
	h.Write(out)
	return labels.AppendLEB128(out, h.Sum64())
}

// docSnap is a per-document snapshot file of the given version
// holding tree under the qed scheme.
func docSnap(version byte, name string, tree []byte) []byte {
	out := labels.AppendString(append([]byte("XDYN"), version), name)
	out = labels.AppendString(out, "qed")
	out = labels.AppendLEB128(out, uint64(len(tree)))
	return sealed(append(out, tree...))
}

// v6DocSnap is a version-6 doc-snap of <a/>, its tree in the grammar
// before the compact one: kind, name, empty value, no attributes, no
// children.
func v6DocSnap(name string) []byte { return docSnap(6, name, []byte{1, 1, 1, 'a', 0, 0, 0}) }

// v8DocSnap is a version-8 doc-snap of <a/> in the compact tree
// grammar, the record packs replaced.
func v8DocSnap(name string) []byte {
	doc, err := xmldyn.ParseString("<a/>")
	if err != nil {
		panic(err)
	}
	return docSnap(8, name, update.EncodeDocTree(doc))
}

// v9 rewrites a pack of this build as version 9, the pack whose trees
// spelt every name in full: the same layout under the other version
// byte, resealed.
func v9(pack []byte) []byte {
	for n := len(pack) - 1; ; n-- {
		if bytes.Equal(sealed(slices.Clip(pack[:n])), pack) {
			body := slices.Clone(pack[:n])
			body[len("XDYN")] = 9
			return sealed(body)
		}
	}
}

// v9Tree is <a/> in the tree grammar of version 9: a name is its
// length and its bytes.
var v9Tree = []byte{1, 1, 1, 'a'}

// dirFiles maps every file of dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestOldFormatsRefused: bytes written in a format this build does not
// read are refused by their version byte — a log segment in the tree
// grammar before the compact one, in the one that spelt every name in
// full or in the op grammar that addressed every target by its path, a
// checkpoint or session image in a version-9 pack, a session image in
// the version-8 doc-snap that packs replaced or in the grammar before
// the compact one, a version-7 repository image, a follower speaking
// protocol 4 — and a directory in the per-file checkpoint
// layout packs replaced is refused by its MANIFEST and doc-*.snap
// names. Nothing migrates them, and a refused directory is left as it
// was.
func TestOldFormatsRefused(t *testing.T) {
	opts := repo.DurableOptions{AutoCheckpointBytes: -1}
	for version, file := range []string{1: v1Segment, 2: v2Segment, 3: v3Segment} {
		if file == "" {
			continue
		}
		segment, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(segment, []byte{'X', 'W', 'A', 'L', byte(version)}) {
			t.Fatalf("%s does not begin XWAL\\x%02x", file, version)
		}
		logDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(logDir, wal.SegmentName(1)), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(logDir, store.PackName(1)), store.MarshalPack(&store.Pack{Gen: 1, WALFirst: 1}, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, logDir)
		if d, err := repo.OpenDurable(logDir, opts); !errors.Is(err, repo.ErrReplay) || !errors.Is(err, wal.ErrBadHeader) {
			if err == nil {
				d.Close()
			}
			t.Errorf("a version-%d segment: %v, want ErrReplay wrapping wal.ErrBadHeader", version, err)
		}
		if after := dirFiles(t, logDir); !maps.Equal(before, after) {
			t.Errorf("a refused open changed the directory: %d files before, %d after", len(before), len(after))
		}
	}

	// A checkpoint in a version-9 pack, an empty current segment 1
	// beside it.
	packDir := t.TempDir()
	pack := store.Pack{Gen: 1, WALFirst: 1, Docs: []store.PackDoc{{Name: "old", Ref: store.Ref{Gen: 1}}}}
	if err := os.WriteFile(filepath.Join(packDir, store.PackName(1)), v9(store.MarshalPack(&pack, []store.DocSnap{{Name: "old", Scheme: "qed", Tree: v9Tree}})), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(packDir, wal.SegmentName(1)), append([]byte(wal.Magic), wal.Version), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, packDir)
	if d, err := repo.OpenDurable(packDir, opts); !errors.Is(err, repo.ErrReplay) || !errors.Is(err, store.ErrBadVersion) {
		if err == nil {
			d.Close()
		}
		t.Errorf("a version-9 pack: %v, want ErrReplay wrapping store.ErrBadVersion", err)
	}
	if after := dirFiles(t, packDir); !maps.Equal(before, after) {
		t.Errorf("a refused version-9 pack directory changed: %d files before, %d after", len(before), len(after))
	}
	if _, err := xmldyn.Restore(v9(store.MarshalDocSnap(store.DocSnap{Scheme: "qed", Tree: v9Tree}))); !errors.Is(err, store.ErrBadVersion) {
		t.Errorf("a version-9 session image: %v, want store.ErrBadVersion", err)
	}

	// A follower's hello in protocol 4, from segment 1.
	leader, err := repo.OpenDurable(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	hello := binary.LittleEndian.AppendUint64(append([]byte(replica.ProtoMagic), 4), 1)
	hello = binary.LittleEndian.AppendUint64(hello, uint64(wal.HeaderSize))
	frame := binary.LittleEndian.AppendUint32([]byte{replica.MsgHello}, uint32(len(hello)))
	frame = append(binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(hello)), hello...)
	conn, follower := net.Pipe()
	go func() {
		follower.Write(frame)
		follower.Close()
	}()
	if err := replica.NewShipper(leader, replica.ShipperOptions{}).HandleConn(conn); !errors.Is(err, replica.ErrHandshake) {
		t.Errorf("a protocol-4 hello: %v, want replica.ErrHandshake", err)
	}

	// A directory in the per-file layout — a manifest naming a
	// version-8 doc-snap, an empty current segment 1 beside them — has
	// no pack, and would look fresh but for the refusal: generation 1
	// written over it, its files swept.
	snapDir := t.TempDir()
	file := store.DocSnapName("old", 1, 0)
	if err := os.WriteFile(filepath.Join(snapDir, file), v8DocSnap("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, wal.SegmentName(1)), append([]byte(wal.Magic), wal.Version), 0o644); err != nil {
		t.Fatal(err)
	}
	man := store.Manifest{Gen: 1, WALFirst: 1, Docs: []store.ManifestDoc{{Name: "old", File: file, Gen: 1}}}
	if err := store.WriteManifest(snapDir, man); err != nil {
		t.Fatal(err)
	}
	before = dirFiles(t, snapDir)
	if d, err := repo.OpenDurable(snapDir, opts); !errors.Is(err, repo.ErrReplay) || !errors.Is(err, store.ErrBadVersion) {
		if err == nil {
			d.Close()
		}
		t.Errorf("a per-file layout directory: %v, want ErrReplay wrapping store.ErrBadVersion", err)
	}
	if after := dirFiles(t, snapDir); !maps.Equal(before, after) {
		t.Errorf("a refused per-file layout directory changed: %d files before, %d after", len(before), len(after))
	}

	if _, err := xmldyn.Restore(v8DocSnap("")); !errors.Is(err, store.ErrBadVersion) {
		t.Errorf("a version-8 session image: %v, want store.ErrBadVersion", err)
	}
	rec := v8DocSnap("old")
	image := labels.AppendLEB128(labels.AppendLEB128(append([]byte("XDYN"), 7), 1), uint64(len(rec)))
	if _, err := xmldyn.RestoreRepository(sealed(append(image, rec...))); !errors.Is(err, store.ErrBadVersion) {
		t.Errorf("a version-7 repository image: %v, want store.ErrBadVersion", err)
	}

	if _, err := xmldyn.Restore(v6DocSnap("")); !errors.Is(err, store.ErrBadVersion) {
		t.Errorf("a version-6 session image: %v, want store.ErrBadVersion", err)
	}
}
