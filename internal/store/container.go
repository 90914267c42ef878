// Repository containers: the version-2 snapshot format holding many
// named documents so a whole repository round-trips Save/Load in one
// blob. Layout (same conventions as version 1 — LEB128 integers,
// length-prefixed strings, FNV-1a trailer):
//
//	magic "XDYN" | version 2 | doc count
//	docs: name | scheme | row count | rows
//	trailer: FNV-1a checksum of everything before it

package store

import (
	"errors"
	"fmt"

	"xmldyn/internal/encoding"
	"xmldyn/internal/labels"
	"xmldyn/internal/xmltree"
)

// ErrDupName reports a container holding two documents with one name.
var ErrDupName = errors.New("store: duplicate document name")

// DocSnapshot is one named document inside a repository container.
type DocSnapshot struct {
	Name   string
	Scheme string
	Rows   []encoding.Row
}

// Rebuild reconstructs the document tree from the snapshot's rows.
func (d *DocSnapshot) Rebuild() (*xmltree.Document, error) { return encoding.Reconstruct(d.Rows) }

// MarshalRepo snapshots a set of named documents into one container.
// Names must be unique.
func MarshalRepo(docs []DocSnapshot) ([]byte, error) {
	seen := make(map[string]bool, len(docs))
	var out []byte
	out = append(out, magic...)
	out = append(out, VersionRepo)
	out = labels.AppendLEB128(out, uint64(len(docs)))
	for _, d := range docs {
		if seen[d.Name] {
			return nil, fmt.Errorf("%w: %q", ErrDupName, d.Name)
		}
		seen[d.Name] = true
		out = appendString(out, d.Name)
		out = appendString(out, d.Scheme)
		out = labels.AppendLEB128(out, uint64(len(d.Rows)))
		for _, r := range d.Rows {
			var err error
			if out, err = appendRow(out, r); err != nil {
				return nil, fmt.Errorf("store: doc %q: %w", d.Name, err)
			}
		}
	}
	return sealRecord(out), nil
}

// UnmarshalRepo decodes a repository container, verifying the checksum.
func UnmarshalRepo(data []byte) ([]DocSnapshot, error) {
	pos, err := openRecord(data, VersionRepo)
	if err != nil {
		return nil, err
	}
	count, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return nil, fmt.Errorf("%w: doc count: %v", ErrCorrupt, err)
	}
	pos += n
	// Each document costs at least two empty strings plus a row count.
	if count > uint64(len(data))/3 {
		return nil, fmt.Errorf("%w: implausible doc count %d", ErrCorrupt, count)
	}
	docs := make([]DocSnapshot, 0, count)
	seen := make(map[string]bool, count)
	for i := uint64(0); i < count; i++ {
		var d DocSnapshot
		if d.Name, pos, err = readString(data, pos); err != nil {
			return nil, fmt.Errorf("doc %d: %w", i, err)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("%w: %q", ErrDupName, d.Name)
		}
		seen[d.Name] = true
		if d.Scheme, pos, err = readString(data, pos); err != nil {
			return nil, fmt.Errorf("doc %q: %w", d.Name, err)
		}
		rows, n, err := labels.DecodeLEB128(data[pos:])
		if err != nil {
			return nil, fmt.Errorf("%w: doc %q row count: %v", ErrCorrupt, d.Name, err)
		}
		pos += n
		if rows > uint64(len(data)-pos)/minRowBytes {
			return nil, fmt.Errorf("%w: doc %q implausible row count %d", ErrCorrupt, d.Name, rows)
		}
		d.Rows = make([]encoding.Row, 0, rows)
		for j := uint64(0); j < rows; j++ {
			var r encoding.Row
			if r, pos, err = readRow(data, pos, j); err != nil {
				return nil, fmt.Errorf("doc %q: %w", d.Name, err)
			}
			d.Rows = append(d.Rows, r)
		}
		docs = append(docs, d)
	}
	if err := closeRecord(data, pos); err != nil {
		return nil, err
	}
	return docs, nil
}
