package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writePack writes p, with recs as its own records, as dir's pack of
// generation p.Gen, and returns its bytes.
func writePack(t *testing.T, dir string, p Pack, recs []DocSnap) []byte {
	t.Helper()
	data := MarshalPack(&p, recs)
	if err := WriteFileAtomic(filepath.Join(dir, PackName(p.Gen)), data); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestManifestRoundTrip: a pack's manifest — its header: generation,
// first live segment, and every entry, local or a reference into an
// older pack — survives a round trip, the newest pack of a directory is
// the current one, and ReadPacks reads exactly the packs it references.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	books := DocSnap{Name: "books", Scheme: "qed", Tree: []byte{1, 2, 3}}
	feeds := DocSnap{Name: "feeds", Scheme: "deweyid", Tree: []byte{4, 5}}
	old := Pack{Gen: 3, WALFirst: 40, Docs: []PackDoc{{Name: "books", Ref: Ref{Gen: 3}}, {Name: "feeds", Ref: Ref{Gen: 3}}}}
	oldData := writePack(t, dir, old, []DocSnap{books, feeds})
	decoded, err := UnmarshalPack(oldData)
	if err != nil {
		t.Fatal(err)
	}
	feedsRef := decoded.Docs[1].Ref
	books.Tree = []byte{9}
	want := Pack{Gen: 7, WALFirst: 42, Docs: []PackDoc{{Name: "books", Ref: Ref{Gen: 7}}, {Name: "feeds", Ref: feedsRef}}}
	data := MarshalPack(&want, []DocSnap{books})
	if err := WriteFileAtomic(filepath.Join(dir, PackName(want.Gen)), data); err != nil {
		t.Fatal(err)
	}
	got, packs, err := ReadPacks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if len(packs) != 2 || string(packs[7]) != string(data) || string(packs[3]) != string(oldData) {
		t.Fatalf("ReadPacks read generations %v, want the current 7 and the referenced 3", len(packs))
	}
	for i, wantRec := range []DocSnap{books, feeds} {
		rec, err := UnmarshalRecord(packs[got.Docs[i].Ref.Gen], got.Docs[i])
		if err != nil || !reflect.DeepEqual(rec, wantRec) {
			t.Fatalf("record %d: %+v, %v; want %+v", i, rec, err, wantRec)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, PackName(want.Gen)+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("pack temp file survived the rename: %v", err)
	}
	// Bootstrap shape: no documents, first segment 1.
	empty := t.TempDir()
	writePack(t, empty, Pack{Gen: 1, WALFirst: 1}, nil)
	if got, _, err = ReadPacks(empty); err != nil || len(got.Docs) != 0 || got.WALFirst != 1 {
		t.Fatalf("bootstrap pack: %+v, %v", got, err)
	}
}

// v4ManifestFixture is a genuine version-4 manifest (generation 2, one
// whole-repository container "snapshot-000002.xdyn", first live
// segment 7) with a valid checksum: a format this build does not read.
const v4ManifestFixture = "XDYN\x04\x02\x14snapshot-000002.xdyn\a\xe3\xfa\xa6\x97\xda\x92\xf4\xfaR"

// A well-formed version-4 manifest is rejected by its version byte,
// like any other version this build does not read.
func TestManifestRejectsV4(t *testing.T) {
	if _, err := UnmarshalPack([]byte(v4ManifestFixture)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v4 manifest: %v, want ErrBadVersion", err)
	}
}

// TestManifestRejectsDamage: damage to a pack's manifest, and a
// manifest a writer could not have made, are typed errors.
func TestManifestRejectsDamage(t *testing.T) {
	p := Pack{Gen: 3, WALFirst: 9, Docs: []PackDoc{{Name: "books", Ref: Ref{Gen: 3}}}}
	data := MarshalPack(&p, []DocSnap{{Name: "books", Scheme: "qed", Tree: []byte{1}}})
	// Flip a byte inside the document name (structure still parses):
	// the FNV trailer must catch it.
	bad := append([]byte(nil), data...)
	bad[len(magic)+5] ^= 0x01
	if _, err := UnmarshalPack(bad); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("flipped byte: %v, want ErrBadChecksum", err)
	}
	// A superseded version byte (5 was the per-file manifest) is
	// rejected, not migrated.
	old := append([]byte(nil), data...)
	old[len(magic)] = 5
	if _, err := UnmarshalPack(old); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version 5: %v, want ErrBadVersion", err)
	}
	// Trailing garbage after the trailer.
	if _, err := UnmarshalPack(append(append([]byte(nil), data...), 0x00)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v, want ErrCorrupt", err)
	}
	for _, c := range []struct {
		what string
		p    Pack
	}{
		{"a duplicate document", Pack{Gen: 2, Docs: []PackDoc{{Name: "a", Ref: Ref{Gen: 1, Len: 9}}, {Name: "a", Ref: Ref{Gen: 1, Len: 9}}}}},
		{"documents out of name order", Pack{Gen: 2, Docs: []PackDoc{{Name: "b", Ref: Ref{Gen: 1, Len: 9}}, {Name: "a", Ref: Ref{Gen: 1, Len: 9}}}}},
		{"a reference to a newer pack", Pack{Gen: 2, Docs: []PackDoc{{Name: "a", Ref: Ref{Gen: 3, Len: 9}}}}},
	} {
		if _, err := UnmarshalPack(MarshalPack(&c.p, nil)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", c.what, err)
		}
	}
	// A local record longer than the pack: a reference outside it.
	long := append([]byte(magic), VersionPack, 1, 1, 1, 1, 'a', 1, 0x7f)
	if _, err := UnmarshalPack(sealRecord(long)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a record past the pack's end: %v, want ErrCorrupt", err)
	}
	// A directory with no pack surfaces as not-exist: a fresh start.
	if _, _, err := ReadPacks(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("no pack: %v, want not-exist", err)
	}
}

// Per-document (session) image round-trip plus typed failures on
// damage: a record's own checksum, its embedded name and its extent
// are all checked.
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
	p, err := UnmarshalPack(data)
	if err != nil {
		t.Fatal(err)
	}
	e := p.Docs[0]
	// The record's checksum catches a flipped tree byte that no pack
	// trailer covers.
	bad := append([]byte(nil), data...)
	bad[e.Ref.Off+e.Ref.Len-recordTrailer-1] ^= 0x40
	if _, err := UnmarshalRecord(bad, e); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("flipped record byte: %v, want ErrBadChecksum", err)
	}
	// A record must hold the document its entry names.
	if _, err := UnmarshalRecord(data, PackDoc{Name: "feeds", Ref: e.Ref}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misnamed record: %v, want ErrCorrupt", err)
	}
	// A reference outside its pack fails as corruption, not a panic.
	for _, ref := range []Ref{{Off: e.Ref.Off, Len: uint64(len(data))}, {Off: uint64(len(data)) + 1, Len: 9}, {Off: e.Ref.Off, Len: 3}} {
		if _, err := UnmarshalRecord(data, PackDoc{Name: "books", Ref: ref}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record at %+v: %v, want ErrCorrupt", ref, err)
		}
	}
	// Wrong version byte.
	wrong := append([]byte(nil), data...)
	wrong[len(magic)] = 8
	if _, err := UnmarshalDocSnap(wrong); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("wrong version: %v, want ErrBadVersion", err)
	}
}

// DocSnapName is deterministic, salt-sensitive and recognisable as the
// per-file layout, as is MANIFEST; a pack's name is not, and
// round-trips its generation.
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
	for _, name := range []string{a, DocSnapName("", 1, 0), "MANIFEST"} {
		if !IsLegacyName(name) {
			t.Fatalf("IsLegacyName(%q) = false", name)
		}
	}
	for _, name := range []string{PackName(3), "wal-00000001.log", "snapshot-000001.xdyn", "doc-x.tmp"} {
		if IsLegacyName(name) {
			t.Fatalf("IsLegacyName(%q) = true", name)
		}
	}
	for _, gen := range []uint64{0, 1, 999999, 1000000} {
		if got, ok := ParsePackName(PackName(gen)); !ok || got != gen {
			t.Fatalf("ParsePackName(%q) = %d, %v", PackName(gen), got, ok)
		}
	}
	for _, name := range []string{"ckpt-1.pack", "ckpt-000001.pack.tmp", "ckpt--00001.pack", "ckpt-+00001.pack", "5.pack"} {
		if _, ok := ParsePackName(name); ok {
			t.Fatalf("ParsePackName(%q) accepted", name)
		}
	}
}
