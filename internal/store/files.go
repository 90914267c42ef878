// Pack files: a durable repository directory holds its checkpoints as
// ckpt-<generation>.pack files. The newest is the current state; the
// older ones it references hold the records of documents that have not
// changed since. A pack is written once, by WriteFileAtomic — temp
// file, fsync, rename, directory fsync — and never modified, so the
// rename is a checkpoint's commit point. A bootstrap image
// (docs/REPLICATION.md) is the current pack and the packs it
// references, byte for byte.

package store

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// PackPattern is the file-name pattern of checkpoint packs: the
// generation that wrote the pack.
const PackPattern = "ckpt-%06d.pack"

// PackName returns the file name of the pack of a generation.
func PackName(gen uint64) string { return fmt.Sprintf(PackPattern, gen) }

// ParsePackName returns the generation of a pack file name, and whether
// name is one.
func ParsePackName(name string) (uint64, bool) {
	gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".pack"), 10, 64)
	return gen, err == nil && PackName(gen) == name
}

// ReadPacks reads the current pack of a durable repository directory —
// the newest — and every older pack its entries reference, each once.
// It returns the current pack's header and each pack's bytes by
// generation. A directory with no pack is an fs.ErrNotExist error: a
// fresh directory. A directory in the per-file layout packs replaced (a
// MANIFEST or a doc-*.snap file) is ErrBadVersion, found before any
// file is read. A referenced pack that is missing is ErrCorrupt, never
// a fresh start.
func ReadPacks(dir string) (Pack, map[uint64][]byte, error) {
	d, err := os.Open(dir)
	if err != nil {
		return Pack{}, nil, err
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return Pack{}, nil, err
	}
	var cur uint64
	found := false
	for _, name := range names {
		if IsLegacyName(name) {
			return Pack{}, nil, fmt.Errorf("%w: %s belongs to the per-file checkpoint layout packs replaced", ErrBadVersion, name)
		}
		if gen, ok := ParsePackName(name); ok && (!found || gen > cur) {
			cur, found = gen, true
		}
	}
	if !found {
		return Pack{}, nil, fmt.Errorf("store: no pack in %s: %w", dir, os.ErrNotExist)
	}
	data, err := os.ReadFile(filepath.Join(dir, PackName(cur)))
	if err != nil {
		return Pack{}, nil, err
	}
	p, err := UnmarshalPack(data)
	if err != nil {
		return p, nil, fmt.Errorf("pack %s: %w", PackName(cur), err)
	}
	packs := map[uint64][]byte{cur: data}
	for _, e := range p.Docs {
		if _, ok := packs[e.Ref.Gen]; ok {
			continue
		}
		if packs[e.Ref.Gen], err = os.ReadFile(filepath.Join(dir, PackName(e.Ref.Gen))); err != nil {
			// %v, not %w: a missing older pack must not read as the
			// fs.ErrNotExist of a fresh directory, which a leader
			// would initialise over the survivors.
			return p, nil, fmt.Errorf("%w: %s references %s: %v", ErrCorrupt, PackName(cur), PackName(e.Ref.Gen), err)
		}
	}
	return p, packs, nil
}

// BootstrapFile is one pack of a bootstrap image: its file name and raw
// bytes.
type BootstrapFile struct {
	Name string
	Data []byte
}

// BootstrapImage is a checkpoint as a replication shipper sends it: the
// current pack and every older pack it references, byte for byte, so
// the follower installs exactly the leader's files and replays the WAL
// from the current pack's first live segment.
type BootstrapImage struct {
	// Manifest is the current pack's header.
	Manifest Pack
	// Raw is the current pack's bytes: the file the follower writes
	// last, its commit point.
	Raw []byte
	// Files holds the older packs Raw references, in generation order.
	Files []BootstrapFile
}

// LoadBootstrapImage reads the current pack of dir and every pack it
// references (ReadPacks). The caller keeps checkpoints out for the
// read's duration (repo.DurableRepository.BootstrapImage holds the
// checkpoint lock), so no sweep retires a pack mid-read.
func LoadBootstrapImage(dir string) (BootstrapImage, error) {
	p, packs, err := ReadPacks(dir)
	if err != nil {
		return BootstrapImage{}, err
	}
	img := BootstrapImage{Manifest: p, Raw: packs[p.Gen]}
	for _, gen := range slices.Sorted(maps.Keys(packs)) {
		if gen != p.Gen {
			img.Files = append(img.Files, BootstrapFile{Name: PackName(gen), Data: packs[gen]})
		}
	}
	return img, nil
}

// WriteFileAtomic writes data to path durably via a temp file in the
// same directory: write, fsync, rename, directory fsync. A crash never
// leaves a partial file under the final name. On failure the temp file
// is removed (a temp path it could not create is left alone); if only
// the directory fsync failed, the file is in place but its rename may
// not be durable.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
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
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
