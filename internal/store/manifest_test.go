package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Manifest round-trip, atomic write, and corruption detection for the
// version-5 (incremental-checkpoint) layout.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := Manifest{Gen: 7, WALFirst: 42, Docs: []ManifestDoc{
		{Name: "books", File: DocSnapName("books", 7, 0), Gen: 7},
		{Name: "feeds", File: DocSnapName("feeds", 3, 0), Gen: 3},
	}}
	if err := WriteManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	// No temp file left behind.
	if _, err := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("manifest temp file survived the rename: %v", err)
	}
	// Bootstrap shape: no documents, first segment 1.
	if err := WriteManifest(dir, Manifest{Gen: 1, WALFirst: 1}); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadManifest(dir); err != nil || len(got.Docs) != 0 || got.WALFirst != 1 {
		t.Fatalf("bootstrap manifest: %+v, %v", got, err)
	}
}

// v4ManifestFixture is a genuine version-4 manifest (generation 2, one
// whole-repository container "snapshot-000002.xdyn", first live
// segment 7) with a valid checksum: a format this build does not read.
const v4ManifestFixture = "XDYN\x04\x02\x14snapshot-000002.xdyn\a\xe3\xfa\xa6\x97\xda\x92\xf4\xfaR"

// A well-formed version-4 manifest is rejected by its version byte,
// like any other version this build does not read.
func TestManifestRejectsV4(t *testing.T) {
	if _, err := UnmarshalManifest([]byte(v4ManifestFixture)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v4 manifest: %v, want ErrBadVersion", err)
	}
}

func TestManifestRejectsDamage(t *testing.T) {
	data := MarshalManifest(Manifest{Gen: 3, WALFirst: 9, Docs: []ManifestDoc{
		{Name: "books", File: DocSnapName("books", 3, 0), Gen: 3},
	}})
	// Flip a byte inside the document name (structure still parses):
	// the FNV trailer must catch it.
	bad := append([]byte(nil), data...)
	bad[len(magic)+5] ^= 0x01
	if _, err := UnmarshalManifest(bad); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("flipped byte: %v, want ErrBadChecksum", err)
	}
	// A superseded version byte (v3 named a wal file, not an index) is
	// rejected, not migrated.
	old := append([]byte(nil), data...)
	old[len(magic)] = 3
	if _, err := UnmarshalManifest(old); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version 3: %v, want ErrBadVersion", err)
	}
	// Trailing garbage after the trailer.
	if _, err := UnmarshalManifest(append(append([]byte(nil), data...), 0x00)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v, want ErrCorrupt", err)
	}
	// Duplicate document names are structural corruption.
	dup := MarshalManifest(Manifest{Gen: 2, WALFirst: 1, Docs: []ManifestDoc{
		{Name: "a", File: "doc-1.snap", Gen: 2},
		{Name: "a", File: "doc-2.snap", Gen: 2},
	}})
	if _, err := UnmarshalManifest(dup); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate document: %v, want ErrCorrupt", err)
	}
	// A missing manifest surfaces as os.IsNotExist for bootstrap.
	if _, err := ReadManifest(t.TempDir()); !os.IsNotExist(err) {
		t.Fatalf("missing manifest: %v, want IsNotExist", err)
	}
}

// Per-document snapshot round-trip plus typed failures on damage.
func TestDocSnapRoundTrip(t *testing.T) {
	want := DocSnap{Name: "books", Scheme: "qed", Tree: []byte{0x01, 0x02, 0x03}}
	data := MarshalDocSnap(want)
	got, err := UnmarshalDocSnap(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	// Checksum catches a flipped tree byte.
	bad := append([]byte(nil), data...)
	bad[len(data)-3] ^= 0x40
	if _, err := UnmarshalDocSnap(bad); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("flipped byte: %v, want ErrBadChecksum", err)
	}
	// A truncated tree length fails as corruption, not a panic.
	short := append([]byte(nil), data[:len(magic)+1]...)
	short = appendString(short, "books")
	short = appendString(short, "qed")
	short = append(short, 0x7f) // tree length far beyond the remaining bytes
	if _, err := UnmarshalDocSnap(short); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized tree length: %v, want ErrCorrupt", err)
	}
	// Wrong version byte.
	wrong := append([]byte(nil), data...)
	wrong[len(magic)] = VersionRepo
	if _, err := UnmarshalDocSnap(wrong); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("wrong version: %v, want ErrBadVersion", err)
	}
}

// DocSnapName is deterministic, salt-sensitive and recognisable.
func TestDocSnapName(t *testing.T) {
	a := DocSnapName("books", 7, 0)
	if a != DocSnapName("books", 7, 0) {
		t.Fatal("DocSnapName not deterministic")
	}
	if a == DocSnapName("books", 8, 0) {
		t.Fatal("generation not reflected in name")
	}
	if a == DocSnapName("books", 7, 1) {
		t.Fatal("salt not reflected in name")
	}
	for _, name := range []string{a, DocSnapName("", 1, 0)} {
		if !IsDocSnapName(name) {
			t.Fatalf("IsDocSnapName(%q) = false", name)
		}
	}
	for _, name := range []string{"MANIFEST", "wal-00000001.log", "snapshot-000001.xdyn", "doc-x.tmp"} {
		if IsDocSnapName(name) {
			t.Fatalf("IsDocSnapName(%q) = true", name)
		}
	}
}
