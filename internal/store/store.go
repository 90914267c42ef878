// Package store holds the one binary format a repository persists its
// documents in: the pack (pack.go). A pack holds one record per
// document — its name, its scheme and the update layer's doc-tree
// image — behind a header that maps every document to its record, in
// this pack or in an older one. A durable repository's checkpoint is a
// pack (ckpt-<generation>.pack), and so is a repository's Save image
// and a session's. The tree bytes are opaque here: internal/update's
// EncodeDocTree/DecodeDocTree own that format, which keeps every node,
// text, comment and processing instruction in place.
//
// A pack uses the shared envelope (all integers LEB128, all strings
// length-prefixed):
//
//	magic "XDYN" | version byte | body
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

// VersionPack is the format version byte of a pack; docs/DURABILITY.md
// documents it and the wal golden-constants test keeps doc and code
// aligned. A record carrying any other version byte — 1 and 2 were the
// row-table snapshot and container, 3 to 5 manifest layouts, 6 and 8
// per-document snapshot files, 7 the image of many of them, 9 the pack
// whose trees spelt every name in full — is rejected with ErrBadVersion,
// never migrated.
const VersionPack = 10

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
	want, end, err := readUint(data, pos, "trailer")
	if err != nil {
		return err
	}
	h := fnv.New64a()
	_, _ = h.Write(data[:pos])
	if h.Sum64() != want {
		return ErrBadChecksum
	}
	if end != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-end)
	}
	return nil
}

// appendString delegates to the shared length-prefixed string codec in
// internal/labels.
func appendString(out []byte, s string) []byte { return labels.AppendString(out, s) }

// readUint decodes the LEB128 integer at data[pos:], returning it and
// the offset just past it. A non-minimal encoding is corruption
// (labels.DecodeLEB128), so a pack the decoder accepts re-encodes to the
// same bytes.
func readUint(data []byte, pos int, what string) (uint64, int, error) {
	v, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
	}
	return v, pos + n, nil
}

// readBytes cuts one length-prefixed field at data[pos:] — a window of
// data, not a copy — returning it and the offset just past it.
func readBytes(data []byte, pos int, what string) ([]byte, int, error) {
	size, pos, err := readUint(data, pos, what)
	if err != nil {
		return nil, 0, err
	}
	if size > uint64(len(data)-pos) {
		return nil, 0, fmt.Errorf("%w: %s: length %d exceeds remaining %d bytes", ErrCorrupt, what, size, len(data)-pos)
	}
	end := pos + int(size)
	return data[pos:end:end], end, nil
}
