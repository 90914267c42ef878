// Per-document snapshot files: the version-8 store record holding one
// document's checkpointed state. Incremental checkpoints write one
// doc-*.snap file per dirty document and reference it (together with
// every reused, unchanged file from the previous generation) from a
// version-5 manifest; recovery decodes the referenced files — in
// parallel — and replays the live WAL suffix on top. The same record is
// every document of a repository image (container.go) and, with an
// empty name, a session's Save image.
//
// Layout (LEB128 integers, length-prefixed strings, FNV-1a trailer):
//
//	magic "XDYN" | version 8 | document name | scheme name
//	tree length | tree bytes (the update layer's doc-tree image)
//	trailer: FNV-1a checksum of everything before it
//
// The tree bytes are opaque at this layer: internal/update's
// EncodeDocTree/DecodeDocTree own that format (documented in
// docs/DURABILITY.md §7), so store stays free of tree dependencies.
//
// File names come from DocSnapName: a hash of the document name plus
// the writing generation. The manifest — not the file name — is the
// authoritative name→file map; UnmarshalDocSnap surfaces the embedded
// document name so recovery can verify it against the manifest entry
// and fail loudly on a hash collision or a misplaced file.

package store

import (
	"fmt"
	"hash/fnv"
	"strings"

	"xmldyn/internal/labels"
)

// DocSnapPattern is the file-name pattern of per-document snapshot
// files: the FNV-1a 64 hash of the document name (hex) and the
// checkpoint generation that wrote the file.
const DocSnapPattern = "doc-%016x-%06d.snap"

// DocSnapName returns the canonical snapshot file name for a document
// at a checkpoint generation. The manifest, not the file name, is the
// authoritative name→file map; the hash only keeps file names unique
// and filesystem-safe for arbitrary document names. In the
// astronomically unlikely event that two live documents' hashes
// collide within one checkpoint, the caller disambiguates with a
// nonzero salt (mixed into the hash after the name).
func DocSnapName(docName string, gen, salt uint64) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(docName))
	if salt != 0 {
		_, _ = h.Write(labels.AppendLEB128(nil, salt))
	}
	return fmt.Sprintf(DocSnapPattern, h.Sum64(), gen)
}

// IsDocSnapName reports whether a file name has the per-document
// snapshot shape (DocSnapPattern). Used by recovery's orphan sweep to
// recognise snapshot files no manifest references.
func IsDocSnapName(name string) bool {
	return strings.HasPrefix(name, "doc-") && strings.HasSuffix(name, ".snap")
}

// DocSnap is a decoded per-document snapshot file.
type DocSnap struct {
	// Name is the document's repository name, embedded so recovery can
	// verify the file against the manifest entry that referenced it.
	Name string
	// Scheme is the labeling scheme the document is opened under.
	Scheme string
	// Tree is the update layer's doc-tree image of the document
	// (EncodeDocTree), opaque at the store layer.
	Tree []byte
}

// MarshalDocSnap encodes a per-document snapshot file.
func MarshalDocSnap(s DocSnap) []byte {
	var out []byte
	out = append(out, magic...)
	out = append(out, VersionDocSnap)
	out = appendString(out, s.Name)
	out = appendString(out, s.Scheme)
	out = labels.AppendLEB128(out, uint64(len(s.Tree)))
	out = append(out, s.Tree...)
	return sealRecord(out)
}

// UnmarshalDocSnap decodes a per-document snapshot file, verifying the
// checksum. The tree bytes are not interpreted here, and not copied:
// Tree is a window of data, for internal/update's DecodeDocTree.
func UnmarshalDocSnap(data []byte) (DocSnap, error) {
	var s DocSnap
	pos, err := openRecord(data, VersionDocSnap)
	if err != nil {
		return s, err
	}
	if s.Name, pos, err = readString(data, pos); err != nil {
		return s, err
	}
	if s.Scheme, pos, err = readString(data, pos); err != nil {
		return s, err
	}
	if s.Tree, pos, err = readBytes(data, pos); err != nil {
		return s, fmt.Errorf("tree: %w", err)
	}
	return s, closeRecord(data, pos)
}

// readBytes cuts one length-prefixed field at data[pos:] — a window of
// data, not a copy — returning it and the offset just past it.
func readBytes(data []byte, pos int) ([]byte, int, error) {
	size, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: length: %v", ErrCorrupt, err)
	}
	pos += n
	if size > uint64(len(data)-pos) {
		return nil, 0, fmt.Errorf("%w: length %d exceeds remaining %d bytes", ErrCorrupt, size, len(data)-pos)
	}
	end := pos + int(size)
	return data[pos:end:end], end, nil
}
