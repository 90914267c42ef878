// Package store holds the binary records a repository persists: the
// per-document snapshot (a document's name, its scheme and the update
// layer's doc-tree image, docsnap.go), the repository image of many of
// them (container.go), the checkpoint manifest (manifest.go) and the
// checkpoint a follower bootstraps from (bootstrap.go). The tree bytes
// are opaque here: internal/update's EncodeDocTree/DecodeDocTree
// own that format, which keeps every node, text, comment and processing
// instruction in place.
//
// Every record shares one envelope (all integers LEB128, all strings
// length-prefixed):
//
//	magic "XDYN" | version byte | record body
//	trailer: FNV-1a checksum of everything before it
package store

import (
	"errors"
	"fmt"
	"hash/fnv"

	"xmldyn/internal/labels"
)

// Errors reported by the codec.
var (
	ErrBadMagic    = errors.New("store: not an xmldyn snapshot")
	ErrBadVersion  = errors.New("store: unsupported snapshot version")
	ErrCorrupt     = errors.New("store: snapshot corrupted")
	ErrBadChecksum = errors.New("store: checksum mismatch")
)

// Format version bytes for the store record types; docs/
// DURABILITY.md documents them and the wal golden-constants test keeps
// doc and code aligned. A record carrying any other version byte — 1
// and 2 were the row-table snapshot and container, 3 and 4 manifest
// layouts, 6 the doc-snap of the tree grammar before the compact one —
// is rejected with ErrBadVersion, never migrated.
const (
	// VersionManifest tags durable-repository checkpoint manifests
	// (version 5: incremental checkpoints — the manifest maps every
	// live document name to a per-document snapshot file and the
	// generation that wrote it, plus the first live segment index).
	VersionManifest = 5
	// VersionDocSnap tags per-document snapshots: the doc-*.snap files
	// version-5 manifests reference, and a session's Save image.
	VersionDocSnap = 8
	// VersionRepo tags repository images: a sequence of version-8
	// per-document snapshots in one checksummed blob (Repository.Save).
	// Each carries its own version byte, so an image holding a
	// version-6 record is refused by that record's check.
	VersionRepo = 7
)

const magic = "XDYN"

// openRecord checks the magic and the version byte a record of
// version ver starts with, returning the offset of the record body.
func openRecord(data []byte, ver byte) (int, error) {
	if len(data) < len(magic)+1 || string(data[:len(magic)]) != magic {
		return 0, ErrBadMagic
	}
	if data[len(magic)] != ver {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, data[len(magic)])
	}
	return len(magic) + 1, nil
}

// sealRecord appends the checksum trailer to an encoded record.
func sealRecord(out []byte) []byte {
	h := fnv.New64a()
	_, _ = h.Write(out)
	return labels.AppendLEB128(out, h.Sum64())
}

// closeRecord verifies the trailer at pos — the record body ended
// there — and that nothing follows it.
func closeRecord(data []byte, pos int) error {
	want, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return fmt.Errorf("%w: trailer: %v", ErrCorrupt, err)
	}
	h := fnv.New64a()
	_, _ = h.Write(data[:pos])
	if h.Sum64() != want {
		return ErrBadChecksum
	}
	if pos+n != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-pos-n)
	}
	return nil
}

// appendString and readString delegate to the shared length-prefixed
// string codec in internal/labels, wrapping decode failures in this
// package's corruption error.
func appendString(out []byte, s string) []byte { return labels.AppendString(out, s) }

func readString(data []byte, pos int) (string, int, error) {
	s, next, err := labels.CutString(data, pos)
	if err != nil {
		return "", 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, next, nil
}
