package store

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// FuzzRepoRoundTrip feeds arbitrary bytes to the repository image
// decoder: it must never panic, reject only with the package's typed
// errors, and pay for what the bytes hold, not for what a count or a
// length claims; whenever it accepts the input, the decoded documents
// must survive a marshal/unmarshal round trip unchanged. The tree bytes
// are opaque here: FuzzDecodeDocTree in internal/update fuzzes their
// decoder.
func FuzzRepoRoundTrip(f *testing.F) {
	f.Add(MarshalImage(buildRepo()))
	f.Add(MarshalImage(nil))
	f.Add([]byte("XDYN"))
	f.Add([]byte{})
	f.Add(lyingImage(200))
	f.Add(MarshalDocSnap(buildRepo()[0]))

	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := UnmarshalImage(data)
		requireBoundedDecode(t, data, func() { UnmarshalImage(data) })
		if err != nil {
			requireTypedError(t, err)
			return
		}
		again, err := UnmarshalImage(MarshalImage(docs))
		if err != nil {
			t.Fatalf("re-marshalled image rejected: %v", err)
		}
		requireSameDocs(t, again, docs)
	})
}

// requireBoundedDecode fails unless decode paid for what data holds:
// an entry costs the pack at least three bytes and the decoder its
// name and a 40-byte slot, which append at most doubles.
func requireBoundedDecode(t *testing.T, data []byte, decode func()) {
	t.Helper()
	objects, size := memUse(decode)
	if objects > uint64(len(data))/3+32 || size > uint64(32*len(data)+4096) {
		t.Fatalf("decoding %d bytes took %d allocations, %d bytes", len(data), objects, size)
	}
}

// FuzzPackRoundTrip feeds arbitrary bytes to the pack decoder: it must
// never panic, reject only with the package's typed errors — a
// reference outside its pack, a duplicate name and a count larger than
// the bytes among them — and pay for what the bytes hold; whenever it
// accepts a pack whose own records decode, encoding the decoded header
// and records again gives back the same bytes.
func FuzzPackRoundTrip(f *testing.F) {
	docs := buildRepo()
	full := Pack{Gen: 4, WALFirst: 9, Docs: []PackDoc{{Name: docs[0].Name, Ref: Ref{Gen: 4}}, {Name: docs[1].Name, Ref: Ref{Gen: 4}}}}
	f.Add(MarshalPack(&full, docs[:2]))
	next := Pack{Gen: 6, WALFirst: 12, Docs: []PackDoc{full.Docs[0], {Name: docs[1].Name, Ref: Ref{Gen: 6}}}}
	f.Add(MarshalPack(&next, docs[1:2]))
	f.Add(MarshalPack(&Pack{Gen: 1, WALFirst: 1}, nil))
	f.Add([]byte("XDYN"))
	for _, c := range []struct {
		what string
		data []byte
	}{
		{"a reference outside its pack", sealRecord(append([]byte(magic), VersionPack, 1, 1, 1, 1, 'a', 1, 0x7f))},
		{"a duplicate name", MarshalPack(&Pack{Gen: 2, Docs: []PackDoc{{Name: "a", Ref: Ref{Gen: 1, Len: 9}}, {Name: "a", Ref: Ref{Gen: 1, Len: 9}}}}, nil)},
		{"a count larger than the bytes", lyingImage(200)},
	} {
		if _, err := UnmarshalPack(c.data); !errors.Is(err, ErrCorrupt) {
			f.Fatalf("%s: %v, want ErrCorrupt", c.what, err)
		}
		f.Add(c.data)
	}
	// A correctly sealed pack whose generation varint overflows 64 bits
	// (tenth byte 0x7F): rejected, not read as MaxUint64.
	overflow := append([]byte(magic), VersionPack)
	overflow = append(overflow, bytes.Repeat([]byte{0xFF}, 9)...)
	f.Add(sealRecord(append(overflow, 0x7F, 1, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPack(data)
		requireBoundedDecode(t, data, func() { UnmarshalPack(data) })
		if err != nil {
			requireTypedError(t, err)
			return
		}
		var recs []DocSnap
		for _, d := range p.Docs {
			if d.Ref.Gen != p.Gen {
				continue
			}
			s, err := UnmarshalRecord(data, d)
			if err != nil {
				requireTypedError(t, err)
				return
			}
			recs = append(recs, s)
		}
		again := Pack{Gen: p.Gen, WALFirst: p.WALFirst, Docs: slices.Clone(p.Docs)}
		if got := MarshalPack(&again, recs); !bytes.Equal(got, data) {
			t.Fatalf("decoded pack re-encodes to other bytes:\n got %x\nwant %x", got, data)
		}
		if !reflect.DeepEqual(again.Docs, p.Docs) {
			t.Fatalf("re-encoding moved records:\n got %+v\nwant %+v", again.Docs, p.Docs)
		}
	})
}

// FuzzDocSnapRoundTrip does the same for a session image, the
// one-entry pack (the tree payload is opaque bytes at this layer).
func FuzzDocSnapRoundTrip(f *testing.F) {
	f.Add(MarshalDocSnap(DocSnap{Name: "books", Scheme: "qed", Tree: []byte{1, 2, 3}}))
	f.Add(MarshalDocSnap(DocSnap{}))
	f.Add([]byte("XDYN"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalDocSnap(data)
		if err != nil {
			requireTypedError(t, err)
			return
		}
		s2, err := UnmarshalDocSnap(MarshalDocSnap(s))
		if err != nil {
			t.Fatalf("re-marshalled snapshot rejected: %v", err)
		}
		if s.Name != s2.Name || s.Scheme != s2.Scheme || !bytes.Equal(s.Tree, s2.Tree) {
			t.Fatalf("round trip changed snapshot: %+v vs %+v", s, s2)
		}
	})
}

// FuzzSnapshotRoundTrip does the same for a session snapshot, the
// one-entry pack whose tree Restore decodes: the envelope and the tree are
// read as Restore reads them, a rejection must be typed (a store error,
// or update.ErrCodecCorrupt for the tree), and an accepted snapshot,
// saved again from its decoded document, must restore to the same
// scheme and the same XML.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(MarshalDocSnap(DocSnap{Scheme: "qed", Tree: update.EncodeDocTree(xmltree.SampleBook())}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, doc, err := restoreSnap(data)
		if err != nil {
			if !isTyped(err) && !errors.Is(err, update.ErrCodecCorrupt) {
				t.Fatalf("rejection is not typed: %v", err)
			}
			return
		}
		s2, doc2, err := restoreSnap(MarshalDocSnap(DocSnap{Name: s.Name, Scheme: s.Scheme, Tree: update.EncodeDocTree(doc)}))
		if err != nil {
			t.Fatalf("re-saved snapshot rejected: %v", err)
		}
		if s.Name != s2.Name || s.Scheme != s2.Scheme || doc.XML() != doc2.XML() {
			t.Fatalf("round trip changed snapshot: %s/%s %q vs %s/%s %q",
				s.Name, s.Scheme, doc.XML(), s2.Name, s2.Scheme, doc2.XML())
		}
	})
}

// restoreSnap decodes a session snapshot's envelope and tree.
func restoreSnap(data []byte) (DocSnap, *xmltree.Document, error) {
	s, err := UnmarshalDocSnap(data)
	if err != nil {
		return s, nil, err
	}
	doc, err := update.DecodeDocTree(s.Tree)
	return s, doc, err
}

// requireTypedError fails the test when a decoder rejection is not one
// of the package's typed errors — callers triage on errors.Is, so an
// untyped rejection is an API break.
func requireTypedError(t *testing.T, err error) {
	t.Helper()
	if !isTyped(err) {
		t.Fatalf("rejection is not a typed store error: %v", err)
	}
}

// isTyped reports whether err is one of the package's typed errors.
func isTyped(err error) bool {
	for _, want := range []error{ErrBadMagic, ErrBadVersion, ErrCorrupt, ErrBadChecksum} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}
