// Package store serialises encoded documents (the Definition 2 table of
// internal/encoding) to a compact, self-describing binary snapshot and
// back. A snapshot captures what an XML repository persists: the scheme
// name, every labelled node's label, kind, parent label, name and value
// — enough to rebuild the document text (Definition 2's reconstruction
// requirement) or to reopen it under the same scheme.
//
// Format (all integers LEB128, all strings length-prefixed):
//
//	magic "XDYN" | version byte | scheme | row count
//	rows: kind | label | parent | name | value
//	trailer: FNV-1a checksum of everything before it
package store

import (
	"errors"
	"fmt"
	"hash/fnv"

	"xmldyn/internal/encoding"
	"xmldyn/internal/labels"
	"xmldyn/internal/xmltree"
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
// doc and code aligned.
const (
	// VersionSnapshot tags single-document snapshots.
	VersionSnapshot = 1
	// VersionRepo tags multi-document repository containers.
	VersionRepo = 2
	// VersionManifest tags durable-repository checkpoint manifests
	// (version 5: incremental checkpoints — the manifest maps every
	// live document name to a per-document snapshot file and the
	// generation that wrote it, plus the first live segment index).
	// Versions 3 and 4 are not read: a manifest carrying either is
	// rejected with ErrBadVersion.
	VersionManifest = 5
	// VersionDocSnap tags per-document snapshot files (doc-*.snap),
	// the incremental checkpoint unit referenced by version-5
	// manifests.
	VersionDocSnap = 6
)

const (
	magic = "XDYN"
	// minRowBytes is the smallest possible encoded row: a kind byte
	// plus four empty length-prefixed strings.
	minRowBytes = 5
)

// Snapshot is a decoded store image.
type Snapshot struct {
	Scheme string
	Rows   []encoding.Row
}

// Marshal snapshots an encoded document.
func Marshal(enc *encoding.Document) ([]byte, error) {
	return MarshalRows(enc.Labeling().Name(), enc.Table())
}

// MarshalRows snapshots a row table under a scheme name.
func MarshalRows(scheme string, rows []encoding.Row) ([]byte, error) {
	var out []byte
	out = append(out, magic...)
	out = append(out, VersionSnapshot)
	out = appendString(out, scheme)
	out = labels.AppendLEB128(out, uint64(len(rows)))
	for _, r := range rows {
		var err error
		if out, err = appendRow(out, r); err != nil {
			return nil, err
		}
	}
	return sealRecord(out), nil
}

// Unmarshal decodes a snapshot, verifying the checksum.
func Unmarshal(data []byte) (*Snapshot, error) {
	pos, err := openRecord(data, VersionSnapshot)
	if err != nil {
		return nil, err
	}
	scheme, pos, err := readString(data, pos)
	if err != nil {
		return nil, err
	}
	count, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return nil, fmt.Errorf("%w: row count: %v", ErrCorrupt, err)
	}
	pos += n
	// Sanity bound: each row costs at least minRowBytes, so a count
	// claiming more rows than the buffer could hold is corrupt. The
	// division form avoids overflowing count*minRowBytes.
	if count > uint64(len(data))/minRowBytes {
		return nil, fmt.Errorf("%w: implausible row count %d", ErrCorrupt, count)
	}
	snap := &Snapshot{Scheme: scheme, Rows: make([]encoding.Row, 0, count)}
	for i := uint64(0); i < count; i++ {
		var r encoding.Row
		if r, pos, err = readRow(data, pos, i); err != nil {
			return nil, err
		}
		snap.Rows = append(snap.Rows, r)
	}
	if err := closeRecord(data, pos); err != nil {
		return nil, err
	}
	return snap, nil
}

// Rebuild reconstructs the document tree from the snapshot's rows.
func (s *Snapshot) Rebuild() (*xmltree.Document, error) {
	return encoding.Reconstruct(s.Rows)
}

// appendRow encodes one table row.
func appendRow(out []byte, r encoding.Row) ([]byte, error) {
	if r.Kind != xmltree.KindElement && r.Kind != xmltree.KindAttribute {
		return nil, fmt.Errorf("store: row kind %v not storable", r.Kind)
	}
	out = append(out, byte(r.Kind))
	out = appendString(out, r.Label)
	out = appendString(out, r.Parent)
	out = appendString(out, r.Name)
	out = appendString(out, r.Value)
	return out, nil
}

// readRow decodes one table row (i names the row in errors).
func readRow(data []byte, pos int, i uint64) (encoding.Row, int, error) {
	var r encoding.Row
	if pos >= len(data) {
		return r, 0, fmt.Errorf("%w: truncated at row %d", ErrCorrupt, i)
	}
	kind := xmltree.Kind(data[pos])
	pos++
	if kind != xmltree.KindElement && kind != xmltree.KindAttribute {
		return r, 0, fmt.Errorf("%w: row %d kind %d", ErrCorrupt, i, kind)
	}
	var err error
	r.Kind = kind
	if r.Label, pos, err = readString(data, pos); err != nil {
		return r, 0, err
	}
	if r.Parent, pos, err = readString(data, pos); err != nil {
		return r, 0, err
	}
	if r.Name, pos, err = readString(data, pos); err != nil {
		return r, 0, err
	}
	if r.Value, pos, err = readString(data, pos); err != nil {
		return r, 0, err
	}
	return r, pos, nil
}

// Every store record shares one envelope: the magic, a version byte,
// the record body, and an FNV-1a trailer over everything before it.
// openRecord, sealRecord and closeRecord are that envelope.

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
