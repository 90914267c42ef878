// Packs: the version-10 store record every stored state is. A pack maps
// every document to its record — name, scheme and doc-tree image —
// either in the pack itself or in an older pack, by that pack's
// generation and the record's offset and length in it. A durable
// repository's checkpoint writes one pack holding the records of the
// documents that changed, and references the rest (docs/DURABILITY.md
// §3); a Save image is a pack whose every record is its own.
//
// Layout (the shared envelope of store.go):
//
//	magic "XDYN" | version 10 | generation | first live segment
//	entry count | count × (name | record generation | record length
//	                       [| record offset: only when the record
//	                          generation is not the pack's own])
//	the pack's own records, one per local entry, in entry order
//	trailer: FNV-1a checksum of everything before it
//
//	record: name | scheme | tree length | tree bytes
//	        | FNV-1a 64 of the record's other bytes, 8 bytes little-endian
//
// Entry names are strictly increasing, which also makes them unique.
// An entry whose record generation is the pack's own is local: its
// record is the pack's next one, so its offset is implied. Every other
// entry names an older generation, and its offset counts from the
// start of that pack's file. A record carries a checksum of its own
// because a newer pack references it without re-reading the older
// pack's trailer, and its own name, which must equal the entry's.

package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"xmldyn/internal/labels"
)

// DocSnap is one document's record: its stored state.
type DocSnap struct {
	// Name is the document's repository name, embedded so a reader can
	// verify the record against the entry that referenced it.
	Name string
	// Scheme is the labeling scheme the document is opened under.
	Scheme string
	// Tree is the update layer's doc-tree image of the document
	// (EncodeDocTree), opaque at the store layer.
	Tree []byte
}

// Ref locates a record: the generation of the pack that holds it, and
// its offset and length in that pack's bytes.
type Ref struct {
	Gen, Off, Len uint64
}

// PackDoc is one entry of a pack: a document and where its record is.
type PackDoc struct {
	Name string
	Ref  Ref
}

// Pack is a decoded pack header.
type Pack struct {
	// Gen is the pack's generation: a checkpoint's, starting at 1, or 0
	// for a Save image. A checkpoint's pack is the file PackName(Gen).
	Gen uint64
	// WALFirst is the index of the first live write-ahead-log segment:
	// the segments WALFirst, WALFirst+1, … (internal/wal's numbered
	// "wal-%08d.log" files) hold every batch committed since the pack's
	// records were cut, and everything below is dead history.
	WALFirst uint64
	// Docs maps every document to its record, in increasing name order.
	Docs []PackDoc
}

// recordTrailer is the length of a record's checksum.
const recordTrailer = 8

// recordSize is the encoded length of s as a pack record.
func recordSize(s DocSnap) uint64 {
	n := labels.LEB128Len(uint64(len(s.Name))) + len(s.Name) + labels.LEB128Len(uint64(len(s.Scheme))) + len(s.Scheme) +
		labels.LEB128Len(uint64(len(s.Tree))) + len(s.Tree) + recordTrailer
	return uint64(n)
}

// appendPackRecord appends s as a pack record.
func appendPackRecord(out []byte, s DocSnap) []byte {
	start := len(out)
	out = appendString(out, s.Name)
	out = appendString(out, s.Scheme)
	out = labels.AppendLEB128(out, uint64(len(s.Tree)))
	out = append(out, s.Tree...)
	h := fnv.New64a()
	_, _ = h.Write(out[start:])
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

// MarshalPack encodes p with recs as its own records: recs[i] is the
// record of p's i-th local entry (Ref.Gen == p.Gen) and carries that
// entry's name. MarshalPack sets the Off and Len of every local entry;
// every other entry's Ref is written as given. p.Docs must be in
// strictly increasing name order, and every reference older than p.
func MarshalPack(p *Pack, recs []DocSnap) []byte {
	size, next := 32, 0
	for i := range p.Docs {
		d := &p.Docs[i]
		size += len(d.Name) + 40
		if d.Ref.Gen == p.Gen {
			d.Ref.Len = recordSize(recs[next])
			size += int(d.Ref.Len)
			next++
		}
	}
	out := make([]byte, 0, size)
	out = append(out, magic...)
	out = append(out, VersionPack)
	out = labels.AppendLEB128(out, p.Gen)
	out = labels.AppendLEB128(out, p.WALFirst)
	out = labels.AppendLEB128(out, uint64(len(p.Docs)))
	for _, d := range p.Docs {
		out = appendString(out, d.Name)
		out = labels.AppendLEB128(out, d.Ref.Gen)
		out = labels.AppendLEB128(out, d.Ref.Len)
		if d.Ref.Gen != p.Gen {
			out = labels.AppendLEB128(out, d.Ref.Off)
		}
	}
	next = 0
	for i := range p.Docs {
		if d := &p.Docs[i]; d.Ref.Gen == p.Gen {
			d.Ref.Off = uint64(len(out))
			out = appendPackRecord(out, recs[next])
			next++
		}
	}
	return sealRecord(out)
}

// minEntryBytes is the smallest encoded entry: an empty name, a
// generation and a length of one byte each.
const minEntryBytes = 3

// UnmarshalPack decodes a pack's header, verifying its trailer and that
// its own records exactly fill the space between the header and the
// trailer. The records themselves are read by UnmarshalRecord. Every
// local entry's Ref carries its record's offset in data. Nothing is
// reserved on the count's word: entries are read, and the slice grows,
// only as far as the bytes go.
func UnmarshalPack(data []byte) (Pack, error) {
	var p Pack
	pos, err := openRecord(data, VersionPack)
	if err != nil {
		return p, err
	}
	if p.Gen, pos, err = readUint(data, pos, "generation"); err != nil {
		return p, err
	}
	if p.WALFirst, pos, err = readUint(data, pos, "first segment"); err != nil {
		return p, err
	}
	count, pos, err := readUint(data, pos, "entry count")
	if err != nil {
		return p, err
	}
	if count > uint64(len(data)-pos)/minEntryBytes {
		return p, fmt.Errorf("%w: implausible entry count %d", ErrCorrupt, count)
	}
	var local uint64 // the bytes of the pack's own records
	for i := uint64(0); i < count; i++ {
		var d PackDoc
		var name []byte
		if name, pos, err = readBytes(data, pos, "entry name"); err != nil {
			return p, err
		}
		if n := len(p.Docs); n > 0 && p.Docs[n-1].Name >= string(name) {
			return p, fmt.Errorf("%w: document %q duplicated or out of name order", ErrCorrupt, name)
		}
		d.Name = string(name)
		if d.Ref.Gen, pos, err = readUint(data, pos, "record generation"); err != nil {
			return p, err
		}
		if d.Ref.Len, pos, err = readUint(data, pos, "record length"); err != nil {
			return p, err
		}
		switch {
		case d.Ref.Gen == p.Gen:
			if d.Ref.Len > uint64(len(data))-local {
				return p, fmt.Errorf("%w: record of %q lies outside its pack", ErrCorrupt, d.Name)
			}
			d.Ref.Off, local = local, local+d.Ref.Len
		case d.Ref.Gen > p.Gen:
			return p, fmt.Errorf("%w: %q references pack %d, newer than the pack itself", ErrCorrupt, d.Name, d.Ref.Gen)
		default:
			if d.Ref.Off, pos, err = readUint(data, pos, "record offset"); err != nil {
				return p, err
			}
		}
		p.Docs = append(p.Docs, d)
	}
	if local > uint64(len(data)-pos) {
		return p, fmt.Errorf("%w: records overrun the pack by %d bytes", ErrCorrupt, local-uint64(len(data)-pos))
	}
	for i := range p.Docs {
		if p.Docs[i].Ref.Gen == p.Gen {
			p.Docs[i].Ref.Off += uint64(pos)
		}
	}
	return p, closeRecord(data, pos+int(local))
}

// UnmarshalRecord decodes the record of entry d from data, the bytes of
// the pack of generation d.Ref.Gen, verifying the record's checksum and
// that it holds the document d names. Tree is a window of data, for
// internal/update's DecodeDocTree; Name is d's own string.
func UnmarshalRecord(data []byte, d PackDoc) (DocSnap, error) {
	s := DocSnap{Name: d.Name}
	if d.Ref.Off > uint64(len(data)) || d.Ref.Len > uint64(len(data))-d.Ref.Off || d.Ref.Len < recordTrailer {
		return s, fmt.Errorf("%w: record of %q at %d+%d lies outside its %d-byte pack", ErrCorrupt, d.Name, d.Ref.Off, d.Ref.Len, len(data))
	}
	end := d.Ref.Off + d.Ref.Len - recordTrailer
	rec := data[d.Ref.Off:end:end]
	h := fnv.New64a()
	_, _ = h.Write(rec)
	if h.Sum64() != binary.LittleEndian.Uint64(data[end:]) {
		return s, fmt.Errorf("%w: record of %q", ErrBadChecksum, d.Name)
	}
	name, pos, err := readBytes(rec, 0, "record name")
	if err != nil {
		return s, err
	}
	if string(name) != d.Name {
		return s, fmt.Errorf("%w: record holds document %q, entry names %q", ErrCorrupt, name, d.Name)
	}
	scheme, pos, err := readBytes(rec, pos, "scheme")
	if err != nil {
		return s, err
	}
	s.Scheme = string(scheme)
	if s.Tree, pos, err = readBytes(rec, pos, "tree"); err != nil {
		return s, err
	}
	if pos != len(rec) {
		return s, fmt.Errorf("%w: %d bytes after the tree of %q", ErrCorrupt, len(rec)-pos, d.Name)
	}
	return s, nil
}

// MarshalImage encodes docs, in strictly increasing name order, as a
// pack of generation 0 whose every record is its own: a repository's
// Save image.
func MarshalImage(docs []DocSnap) []byte {
	p := Pack{Docs: make([]PackDoc, len(docs))}
	for i, d := range docs {
		p.Docs[i].Name = d.Name
	}
	return MarshalPack(&p, docs)
}

// UnmarshalImage decodes a pack whose every record is its own — a Save
// image — into its records. Each Tree is a window of data.
func UnmarshalImage(data []byte) ([]DocSnap, error) {
	p, err := UnmarshalPack(data)
	if err != nil {
		return nil, err
	}
	docs := make([]DocSnap, 0, len(p.Docs))
	for _, d := range p.Docs {
		if d.Ref.Gen != p.Gen {
			return nil, fmt.Errorf("%w: %q references pack %d; an image holds its own records", ErrCorrupt, d.Name, d.Ref.Gen)
		}
		s, err := UnmarshalRecord(data, d)
		if err != nil {
			return nil, err
		}
		docs = append(docs, s)
	}
	return docs, nil
}

// MarshalDocSnap encodes one document as a one-entry image: a
// session's Save image.
func MarshalDocSnap(s DocSnap) []byte { return MarshalImage([]DocSnap{s}) }

// UnmarshalDocSnap decodes a one-entry image.
func UnmarshalDocSnap(data []byte) (DocSnap, error) {
	docs, err := UnmarshalImage(data)
	if err == nil && len(docs) != 1 {
		err = fmt.Errorf("%w: %d documents in a one-document image", ErrCorrupt, len(docs))
	}
	if err != nil {
		return DocSnap{}, err
	}
	return docs[0], nil
}
