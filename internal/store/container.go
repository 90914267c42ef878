// Repository images: the version-7 store record holding many named
// documents, so a whole repository round-trips Save/Load in one blob.
// Each document is a whole version-8 per-document snapshot, so an image
// carries exactly the tree bytes a checkpoint would write. Layout:
//
//	magic "XDYN" | version 7 | LEB128 document count
//	count × (LEB128 length | version-8 doc-snap record)
//	trailer: FNV-1a checksum of everything before it
//
// Names are strictly increasing, the order the repository locks its
// documents in, which also makes them unique.

package store

import (
	"fmt"

	"xmldyn/internal/labels"
)

// MarshalRepo encodes a repository image. docs must be in strictly
// increasing name order; UnmarshalRepo refuses any other.
func MarshalRepo(docs []DocSnap) []byte {
	out := append([]byte(magic), VersionRepo)
	out = labels.AppendLEB128(out, uint64(len(docs)))
	for _, d := range docs {
		rec := MarshalDocSnap(d)
		out = labels.AppendLEB128(out, uint64(len(rec)))
		out = append(out, rec...)
	}
	return sealRecord(out)
}

// UnmarshalRepo decodes a repository image, verifying its checksum and
// every document's. Nothing is reserved on the count's word: the
// documents are read, and the slice grows, only as far as the bytes go.
// Each Tree is a window of data, as from UnmarshalDocSnap.
func UnmarshalRepo(data []byte) ([]DocSnap, error) {
	pos, err := openRecord(data, VersionRepo)
	if err != nil {
		return nil, err
	}
	count, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return nil, fmt.Errorf("%w: document count: %v", ErrCorrupt, err)
	}
	pos += n
	var docs []DocSnap
	for i := uint64(0); i < count; i++ {
		var rec []byte
		if rec, pos, err = readBytes(data, pos); err != nil {
			return nil, fmt.Errorf("document %d: %w", i, err)
		}
		d, err := UnmarshalDocSnap(rec)
		if err != nil {
			return nil, fmt.Errorf("document %d: %w", i, err)
		}
		if len(docs) > 0 && docs[len(docs)-1].Name >= d.Name {
			return nil, fmt.Errorf("%w: document %q is not in increasing name order", ErrCorrupt, d.Name)
		}
		docs = append(docs, d)
	}
	if err := closeRecord(data, pos); err != nil {
		return nil, err
	}
	return docs, nil
}
