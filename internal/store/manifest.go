// Checkpoint manifests: the version-5 store record that names the
// current on-disk generation of a durable repository — which
// per-document snapshot files and which suffix of the segmented
// write-ahead log together hold the committed state. The manifest is
// the single source of truth at recovery: OpenDurable reads it, loads
// every snapshot file it names, replays the WAL segments from the
// recorded first live index upward, and ignores every other file in
// the directory (orphans from a checkpoint that crashed before its
// atomic manifest switch).
//
// Layout (same conventions as versions 1 and 2 — LEB128 integers,
// length-prefixed strings, FNV-1a trailer):
//
//	magic "XDYN" | version 5 | generation | first live segment index
//	document count | count × (name | snapshot file | generation)
//	trailer: FNV-1a checksum of everything before it
//
// Only version 5 is read or written: a manifest tagged with any other
// version byte (3 and 4 were manifest layouts too) is rejected with
// ErrBadVersion, never silently migrated.
//
// WriteManifest replaces the file atomically: write to a temp file,
// fsync it, rename over ManifestName, fsync the directory. A crash at
// any step leaves either the old or the new manifest intact, never a
// partial one. The rename is the commit point of a checkpoint: every
// snapshot file a manifest names is written (and fsynced) before the
// manifest that references it, and snapshot files are never modified
// once a manifest names them.

package store

import (
	"fmt"
	"os"
	"path/filepath"

	"xmldyn/internal/labels"
)

// ManifestName is the manifest's fixed file name inside a durable
// repository directory.
const ManifestName = "MANIFEST"

// Manifest names the current generation of a durable repository.
type Manifest struct {
	// Gen is the checkpoint generation, starting at 1 and incremented
	// by every completed checkpoint.
	Gen uint64
	// WALFirst is the index of the first live write-ahead-log segment:
	// the segments WALFirst, WALFirst+1, … (internal/wal's numbered
	// "wal-%08d.log" files) hold every batch committed since the
	// snapshots, and everything below WALFirst is dead history a
	// checkpoint has already folded in.
	WALFirst uint64
	// Docs maps every live document to its per-document snapshot file.
	// Empty for repositories whose only checkpointed state is the WAL
	// itself.
	Docs []ManifestDoc
}

// ManifestDoc is one document entry of a version-5 manifest.
type ManifestDoc struct {
	// Name is the document's repository name.
	Name string
	// File is the per-document snapshot file (DocSnapName) holding the
	// document's state as of generation Gen.
	File string
	// Gen is the checkpoint generation that wrote File. An incremental
	// checkpoint reuses the previous file — and its older Gen — for
	// every document that has not changed since.
	Gen uint64
}

// MarshalManifest encodes a manifest.
func MarshalManifest(m Manifest) []byte {
	var out []byte
	out = append(out, magic...)
	out = append(out, VersionManifest)
	out = labels.AppendLEB128(out, m.Gen)
	out = labels.AppendLEB128(out, m.WALFirst)
	out = labels.AppendLEB128(out, uint64(len(m.Docs)))
	for _, d := range m.Docs {
		out = appendString(out, d.Name)
		out = appendString(out, d.File)
		out = labels.AppendLEB128(out, d.Gen)
	}
	return sealRecord(out)
}

// minManifestDocBytes is the smallest possible encoded manifest entry:
// two empty length-prefixed strings plus a one-byte generation.
const minManifestDocBytes = 3

// UnmarshalManifest decodes a manifest, verifying the checksum.
func UnmarshalManifest(data []byte) (Manifest, error) {
	var m Manifest
	pos, err := openRecord(data, VersionManifest)
	if err != nil {
		return m, err
	}
	gen, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return m, fmt.Errorf("%w: generation: %v", ErrCorrupt, err)
	}
	m.Gen = gen
	pos += n
	first, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return m, fmt.Errorf("%w: first segment: %v", ErrCorrupt, err)
	}
	m.WALFirst = first
	pos += n
	count, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return m, fmt.Errorf("%w: document count: %v", ErrCorrupt, err)
	}
	pos += n
	if count > uint64(len(data)-pos)/minManifestDocBytes {
		return m, fmt.Errorf("%w: implausible document count %d", ErrCorrupt, count)
	}
	seen := make(map[string]bool, count)
	m.Docs = make([]ManifestDoc, 0, count)
	for i := uint64(0); i < count; i++ {
		var d ManifestDoc
		if d.Name, pos, err = readString(data, pos); err != nil {
			return m, err
		}
		if d.File, pos, err = readString(data, pos); err != nil {
			return m, err
		}
		g, n, err := labels.DecodeLEB128(data[pos:])
		if err != nil {
			return m, fmt.Errorf("%w: entry generation: %v", ErrCorrupt, err)
		}
		d.Gen = g
		pos += n
		if seen[d.Name] {
			return m, fmt.Errorf("%w: duplicate document %q", ErrCorrupt, d.Name)
		}
		seen[d.Name] = true
		m.Docs = append(m.Docs, d)
	}
	if err := closeRecord(data, pos); err != nil {
		return m, err
	}
	return m, nil
}

// ReadManifest loads the manifest of a durable repository directory.
// A missing file surfaces as an os.IsNotExist error so callers can
// distinguish "fresh directory" from corruption.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	return UnmarshalManifest(data)
}

// WriteManifest atomically replaces the directory's manifest:
// temp-file write, fsync, rename, directory fsync.
func WriteManifest(dir string, m Manifest) error {
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := writeFileSync(tmp, MarshalManifest(m)); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return err
	}
	return SyncDir(dir)
}

// WriteFileAtomic writes data to path durably via a temp file in the
// same directory: write, fsync, rename, directory fsync. Used for
// snapshot containers so a crashed checkpoint never leaves a partial
// file under the final name.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making completed renames and creations
// inside it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeFileSync writes data to path and fsyncs the file.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
