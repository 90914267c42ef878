// Checkpoint bootstrap transfer (docs/REPLICATION.md): a
// BootstrapImage is the file-level unit a replication shipper sends a
// follower that cannot resume from its own position — the current
// manifest plus every per-document snapshot file it references, read
// byte-for-byte so the follower installs exactly the leader's
// checkpoint state and replays the WAL from the manifest's first live
// segment.

package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// BootstrapFile is one snapshot file of a checkpoint image: its
// directory-relative name and raw bytes.
type BootstrapFile struct {
	Name string
	Data []byte
}

// BootstrapImage is a consistent checkpoint transfer unit: the parsed
// manifest, its raw bytes (the follower writes them back verbatim so
// the installed manifest is byte-identical), and every doc snapshot
// file the manifest references.
type BootstrapImage struct {
	// Manifest is the parsed manifest.
	Manifest Manifest
	// Raw is the manifest file's exact bytes.
	Raw []byte
	// Files holds the doc snapshot files, in manifest order.
	Files []BootstrapFile
}

// LoadBootstrapImage reads the current manifest and every snapshot
// file it references, in one pass with no locking or retry: snapshot
// files are immutable once a manifest names them (the generation is
// part of the file name), so the only race is a concurrent checkpoint
// RETIRING a file after switching manifests — which surfaces as a
// not-exist error here, and the caller retries the whole load against
// the new manifest.
func LoadBootstrapImage(dir string) (BootstrapImage, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return BootstrapImage{}, err
	}
	man, err := UnmarshalManifest(raw)
	if err != nil {
		return BootstrapImage{}, fmt.Errorf("bootstrap manifest: %w", err)
	}
	img := BootstrapImage{Manifest: man, Raw: raw, Files: make([]BootstrapFile, 0, len(man.Docs))}
	for _, d := range man.Docs {
		data, err := os.ReadFile(filepath.Join(dir, d.File))
		if err != nil {
			return BootstrapImage{}, err
		}
		img.Files = append(img.Files, BootstrapFile{Name: d.File, Data: data})
	}
	return img, nil
}
