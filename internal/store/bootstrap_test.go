package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLoadBootstrapImageRoundTrip writes a current pack that references
// an older one, beside a pack neither is nor references, and checks the
// loaded image carries the current pack's bytes verbatim and exactly the
// older pack it references.
func TestLoadBootstrapImageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writePack(t, dir, Pack{Gen: 1, WALFirst: 1}, nil) // retired: nothing references it
	older := writePack(t, dir, Pack{Gen: 2, WALFirst: 4, Docs: []PackDoc{{Name: "feeds", Ref: Ref{Gen: 2}}}},
		[]DocSnap{{Name: "feeds", Scheme: "deweyid", Tree: []byte{7}}})
	prev, err := UnmarshalPack(older)
	if err != nil {
		t.Fatal(err)
	}
	m := Pack{Gen: 3, WALFirst: 7, Docs: []PackDoc{{Name: "books", Ref: Ref{Gen: 3}}, prev.Docs[0]}}
	raw := writePack(t, dir, m, []DocSnap{{Name: "books", Scheme: "qed", Tree: []byte{1, 2}}})
	want, err := UnmarshalPack(raw)
	if err != nil {
		t.Fatal(err)
	}

	img, err := LoadBootstrapImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img.Manifest, want) {
		t.Fatalf("pack round trip:\n got %+v\nwant %+v", img.Manifest, want)
	}
	if string(img.Raw) != string(raw) {
		t.Fatal("raw pack bytes differ from the file")
	}
	if len(img.Files) != 1 || img.Files[0].Name != PackName(2) || string(img.Files[0].Data) != string(older) {
		t.Fatalf("image holds %d older packs, want exactly %s byte for byte", len(img.Files), PackName(2))
	}
}

// TestLoadBootstrapImageErrors pins the three failure classes: no pack
// (not-exist: a fresh directory), a directory in the per-file layout
// (ErrBadVersion: not a format this build reads), and a pack
// referencing a missing one (ErrCorrupt: never mistaken for a fresh
// directory).
func TestLoadBootstrapImageErrors(t *testing.T) {
	if _, err := LoadBootstrapImage(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir: %v, want not-exist", err)
	}

	v4 := t.TempDir()
	if err := os.WriteFile(filepath.Join(v4, legacyManifest), []byte(v4ManifestFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBootstrapImage(v4); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v4 manifest: %v, want ErrBadVersion", err)
	}

	retired := t.TempDir()
	writePack(t, retired, Pack{Gen: 2, WALFirst: 1, Docs: []PackDoc{{Name: "a", Ref: Ref{Gen: 1, Off: 9, Len: 20}}}}, nil)
	if _, err := LoadBootstrapImage(retired); !errors.Is(err, ErrCorrupt) || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing referenced pack: %v, want ErrCorrupt", err)
	}
}
