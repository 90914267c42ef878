// The WAL-record codec (docs/DURABILITY.md §5): the one writer and the
// one reader of the four payload layouts. Every payload is a type byte
// followed by length-prefixed fields (LEB128 byte length, then the
// bytes — the shared string convention of internal/labels):
//
//	RecOpen   name, scheme, then the update.EncodeDocTree image to the end
//	RecBatch  name, then the update.EncodeOps program to the end
//	RecDrop   name, nothing after it
//	RecMulti  LEB128 part count, then per part a name field and an ops
//	          field, names strictly increasing
//
// parseRecord only slices: names become strings — the open documents'
// own, for the applier — and tree images and op programs stay undecoded
// sub-slices of the payload, so routing a record costs no tree work and
// the applier decodes under the document locks. It accepts exactly the
// payloads appendRecord produces — every length minimally encoded,
// nothing trailing — so parse then append is the identity on accepted
// bytes.
// (File comment — the package doc lives in repo.go.)

package repo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"xmldyn/internal/labels"
)

// WAL record type bytes. Each log payload starts with one of these.
const (
	// RecOpen logs a document registration: name, scheme and the
	// initial tree image.
	RecOpen byte = 1
	// RecBatch logs one committed batch: document name plus the
	// update-layer op encoding.
	RecBatch byte = 2
	// RecDrop logs a document removal by name.
	RecDrop byte = 3
	// RecMulti logs one atomic multi-document transaction: a document
	// count, then per document its name and a length-prefixed op
	// encoding. Being a single record is what makes crash atomicity
	// free by construction — it is either wholly in the log or torn
	// off the tail, never partially replayed.
	RecMulti byte = 4
)

// recordPart is one document's share of a record: its name and the
// bytes logged for it — a tree image in a RecOpen, an op program in a
// RecBatch or RecMulti, nothing in a RecDrop.
type recordPart struct {
	name string
	data []byte
}

// record is a WAL payload taken apart. RecMulti carries any number of
// parts in strictly increasing name order (the order the commit locked
// and applied them in); every other type carries exactly one.
type record struct {
	kind   byte
	scheme string // RecOpen only: the registry scheme name
	parts  []recordPart
}

// appendRecord appends rec's payload to out, which it grows once: by
// the payload's size with every length taken at a varint's widest.
func appendRecord(out []byte, rec record) []byte {
	size := 1 + 2*binary.MaxVarintLen64 + len(rec.scheme)
	for _, p := range rec.parts {
		size += 2*binary.MaxVarintLen64 + len(p.name) + len(p.data)
	}
	out = append(slices.Grow(out, size), rec.kind)
	if rec.kind == RecMulti {
		out = labels.AppendLEB128(out, uint64(len(rec.parts)))
		for _, p := range rec.parts {
			out = labels.AppendString(out, p.name)
			out = labels.AppendLEB128(out, uint64(len(p.data)))
			out = append(out, p.data...)
		}
		return out
	}
	out = labels.AppendString(out, rec.parts[0].name)
	if rec.kind == RecOpen {
		out = labels.AppendString(out, rec.scheme)
	}
	return append(out, rec.parts[0].data...)
}

// parseRecord takes a payload apart without decoding any tree image or
// op program. The parts are appended to parts[:0] — a caller that hands
// in room for one keeps a single-part record off the heap — and alias
// payload; their names are live's (Repository.nameOf), copies only where
// live has no such document.
func parseRecord(payload []byte, parts []recordPart, live *Repository) (record, error) {
	if len(payload) == 0 {
		return record{}, errors.New("empty record")
	}
	rec, body := record{kind: payload[0]}, payload[1:]
	if rec.kind == RecMulti {
		count, pos, err := cutLength(body, 0)
		if err != nil {
			return record{}, fmt.Errorf("multi record count: %v", err)
		}
		// A part costs at least a name and an ops length, so bounding by
		// len/3 rejects a crafted count before it sizes the slice.
		if count > uint64(len(body))/3 {
			return record{}, fmt.Errorf("implausible multi record count %d", count)
		}
		rec.parts = slices.Grow(parts[:0], int(count))
		for i := 0; i < int(count); i++ {
			var name, data []byte
			if name, pos, err = cutField(body, pos); err == nil {
				data, pos, err = cutField(body, pos)
			}
			if err != nil {
				return record{}, fmt.Errorf("multi record part %d: %v", i, err)
			}
			rec.parts = append(rec.parts, recordPart{live.nameOf(name), data})
			if i > 0 && rec.parts[i-1].name >= rec.parts[i].name {
				return record{}, fmt.Errorf("multi record part %d (%q) is not in increasing name order", i, name)
			}
		}
		if pos != len(body) {
			return record{}, fmt.Errorf("multi record has %d trailing bytes", len(body)-pos)
		}
		return rec, nil
	}
	name, pos, err := cutField(body, 0)
	if err != nil {
		return record{}, fmt.Errorf("record name: %v", err)
	}
	switch rec.kind {
	case RecOpen:
		var scheme []byte
		if scheme, pos, err = cutField(body, pos); err != nil {
			return record{}, fmt.Errorf("open record scheme: %v", err)
		}
		rec.scheme = string(scheme)
	case RecBatch:
	case RecDrop:
		if pos != len(body) {
			return record{}, fmt.Errorf("drop record has %d trailing bytes", len(body)-pos)
		}
	default:
		return record{}, fmt.Errorf("unknown record type %d", rec.kind)
	}
	rec.parts = append(parts[:0], recordPart{live.nameOf(name), body[pos:]})
	return rec, nil
}

// cutField reads one length-prefixed field at data[pos:], returning it
// and the offset just past it.
func cutField(data []byte, pos int) ([]byte, int, error) {
	n, pos, err := cutLength(data, pos)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(data)-pos) {
		return nil, 0, fmt.Errorf("field of %d bytes overruns the payload", n)
	}
	return data[pos : pos+int(n)], pos + int(n), nil
}

// cutLength reads one LEB128 value at data[pos:] — in its minimal
// encoding, the only one appendRecord writes and labels.DecodeLEB128
// accepts.
func cutLength(data []byte, pos int) (uint64, int, error) {
	v, n, err := labels.DecodeLEB128(data[pos:])
	return v, pos + n, err
}
