package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLoadBootstrapImageRoundTrip writes a v5 manifest plus the
// snapshot files it names and checks the loaded image carries the
// manifest bytes verbatim and every file in manifest order.
func TestLoadBootstrapImageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{
		Gen:      3,
		WALFirst: 7,
		Docs: []ManifestDoc{
			{Name: "books", File: "docsnap-books-g2.xdyn", Gen: 2},
			{Name: "feeds", File: "docsnap-feeds-g3.xdyn", Gen: 3},
		},
	}
	raw := MarshalManifest(m)
	if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, d := range m.Docs {
		data := []byte("snapshot bytes for " + d.Name)
		want[d.File] = data
		if err := os.WriteFile(filepath.Join(dir, d.File), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// An orphan file must not leak into the image.
	if err := os.WriteFile(filepath.Join(dir, "docsnap-orphan-g1.xdyn"), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}

	img, err := LoadBootstrapImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img.Manifest, m) {
		t.Fatalf("manifest round trip:\n got %+v\nwant %+v", img.Manifest, m)
	}
	if string(img.Raw) != string(raw) {
		t.Fatal("raw manifest bytes differ from the file")
	}
	if len(img.Files) != len(m.Docs) {
		t.Fatalf("image holds %d files, want %d", len(img.Files), len(m.Docs))
	}
	for i, f := range img.Files {
		if f.Name != m.Docs[i].File {
			t.Fatalf("file %d is %q, want manifest order %q", i, f.Name, m.Docs[i].File)
		}
		if string(f.Data) != string(want[f.Name]) {
			t.Fatalf("file %q bytes differ", f.Name)
		}
	}
}

// TestLoadBootstrapImageErrors pins the three failure classes: no
// manifest (IsNotExist, the caller's retry signal), a version-4
// manifest (ErrBadVersion: not a format this build reads), and a manifest
// naming a missing snapshot file (IsNotExist again — a concurrent
// checkpoint retired it; retry against the new manifest).
func TestLoadBootstrapImageErrors(t *testing.T) {
	if _, err := LoadBootstrapImage(t.TempDir()); !os.IsNotExist(err) {
		t.Fatalf("empty dir: %v, want not-exist", err)
	}

	v4 := t.TempDir()
	if err := os.WriteFile(filepath.Join(v4, ManifestName), []byte(v4ManifestFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBootstrapImage(v4); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v4 manifest: %v, want ErrBadVersion", err)
	}

	retired := t.TempDir()
	m := Manifest{Gen: 1, WALFirst: 1, Docs: []ManifestDoc{{Name: "a", File: "docsnap-a-g1.xdyn", Gen: 1}}}
	if err := os.WriteFile(filepath.Join(retired, ManifestName), MarshalManifest(m), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBootstrapImage(retired); !os.IsNotExist(err) {
		t.Fatalf("retired snapshot file: %v, want not-exist", err)
	}
}
