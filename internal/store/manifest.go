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
// Layout (the shared envelope of store.go — LEB128 integers,
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
// WriteManifest replaces the file atomically (WriteFileAtomic): write
// to a temp file, fsync it, rename over ManifestName, fsync the
// directory. A crash at any step leaves either the old or the new
// manifest intact, never a partial one. The rename is the commit point of a checkpoint: every
// snapshot file a manifest names is written (and fsynced) before the
// manifest that references it, and snapshot files are never modified
// once a manifest names them.

package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

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
	text := string(data) // every name and file is a cut of this one copy
	for i := uint64(0); i < count; i++ {
		var d ManifestDoc
		var name, file []byte
		if name, pos, err = readBytes(data, pos); err != nil {
			return m, err
		}
		d.Name = text[pos-len(name) : pos]
		if file, pos, err = readBytes(data, pos); err != nil {
			return m, err
		}
		d.File = text[pos-len(file) : pos]
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
	return WriteFileAtomic(filepath.Join(dir, ManifestName), MarshalManifest(m))
}

// WriteFileAtomic writes data to path durably via a temp file in the
// same directory: write, fsync, rename, directory fsync — WriteFiles'
// one-file case. A crash never leaves a partial file under the final
// name.
func WriteFileAtomic(path string, data []byte) error {
	return WriteFiles(filepath.Dir(path), 1, func(int) (string, []byte) { return filepath.Base(path), data }, nil)
}

// fileWriters bounds the goroutines WriteFiles writes with. On ext4
// over a virtual disk, 55 files of 800 bytes took 10–12 ms with eight
// writers against 17 ms with one, and thirty-two did no better than
// eight: the fsyncs overlap, the directory lock does not.
const fileWriters = 8

// WriteFiles writes n files into dir as one durable batch. Up to
// fileWriters goroutines, the caller's among them, each take the next
// index i, call file(i) for the file's name and bytes, write them to
// name+".tmp" and fsync it. Once every temp file is complete, each is
// renamed over its final name in index order — renamed, if non-nil, is
// called with the name after each rename — and the directory is
// fsynced once, making every rename durable together. A crash leaves
// no partial file under a final name. On failure the temp files this
// call created are removed (a path it could not create is left alone)
// and no further rename is made; files already renamed stay, for the
// caller to judge.
func WriteFiles(dir string, n int, file func(i int) (name string, data []byte), renamed func(name string)) error {
	if n == 0 {
		return nil
	}
	names := make([]string, n) // set once file i's temp copy is complete
	errs := make([]error, n)
	var next atomic.Int64
	var stop atomic.Bool
	work := func() {
		for i := int(next.Add(1) - 1); i < n && !stop.Load(); i = int(next.Add(1) - 1) {
			name, data := file(i)
			if errs[i] = writeFileSync(filepath.Join(dir, name+".tmp"), data); errs[i] != nil {
				stop.Store(true)
			} else {
				names[i] = name
			}
		}
	}
	var wg sync.WaitGroup
	for range min(n, fileWriters) - 1 {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	err := errors.Join(errs...)
	for _, name := range names {
		path := filepath.Join(dir, name)
		switch {
		case name == "":
		case err != nil:
			_ = os.Remove(path + ".tmp")
		default:
			if err = os.Rename(path+".tmp", path); err != nil {
				_ = os.Remove(path + ".tmp")
			} else if renamed != nil {
				renamed(name)
			}
		}
	}
	if err != nil {
		return err
	}
	return SyncDir(dir)
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

// writeFileSync writes data to path and fsyncs the file. A failure
// after the file was created removes it again.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path)
	}
	return err
}
