package store

import (
	"bytes"
	"errors"
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// FuzzRepoRoundTrip feeds arbitrary bytes to the repository image
// decoder: it must never panic, reject only with the package's typed
// errors, and pay for what the bytes hold, not for what a count or a
// length claims; whenever it accepts the input, the decoded documents
// must survive a marshal/unmarshal round trip unchanged. (Byte-level
// canonicality does not hold: LEB128 tolerates non-minimal encodings on
// decode, so equality is checked on the decoded form.) The tree bytes
// are opaque here: FuzzDecodeDocTree in internal/update fuzzes their
// decoder.
func FuzzRepoRoundTrip(f *testing.F) {
	f.Add(MarshalRepo(buildRepo()))
	f.Add(MarshalRepo(nil))
	f.Add([]byte("XDYN"))
	f.Add([]byte{})
	f.Add(lyingImage(200))
	f.Add(MarshalDocSnap(buildRepo()[0]))

	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := UnmarshalRepo(data)
		// A document costs the image at least 11 bytes and the decoder
		// its two strings and a 56-byte slot, which append at most
		// doubles.
		objects, size := memUse(func() { UnmarshalRepo(data) })
		if objects > uint64(len(data))/3+32 || size > uint64(16*len(data)+4096) {
			t.Fatalf("decoding %d bytes took %d allocations, %d bytes", len(data), objects, size)
		}
		if err != nil {
			requireTypedError(t, err)
			return
		}
		again, err := UnmarshalRepo(MarshalRepo(docs))
		if err != nil {
			t.Fatalf("re-marshalled image rejected: %v", err)
		}
		requireSameDocs(t, again, docs)
	})
}

// FuzzManifestRoundTrip feeds arbitrary bytes to the manifest decoder:
// it must never panic, fail only with the package's typed errors, and
// whenever it accepts the input the decoded manifest must survive a
// marshal/unmarshal round trip unchanged.
func FuzzManifestRoundTrip(f *testing.F) {
	f.Add(MarshalManifest(Manifest{Gen: 1, WALFirst: 1}))
	f.Add(MarshalManifest(Manifest{Gen: 9, WALFirst: 4, Docs: []ManifestDoc{
		{Name: "books", File: DocSnapName("books", 9, 0), Gen: 9},
		{Name: "feeds", File: DocSnapName("feeds", 2, 0), Gen: 2},
	}}))
	f.Add([]byte("XDYN"))
	f.Add([]byte{})
	// A correctly sealed manifest whose generation varint overflows 64
	// bits (tenth byte 0x7F): rejected, not read as MaxUint64.
	overflow := append([]byte(magic), VersionManifest)
	overflow = append(overflow, bytes.Repeat([]byte{0xFF}, 9)...)
	f.Add(sealRecord(append(overflow, 0x7F, 1, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalManifest(data)
		if err != nil {
			requireTypedError(t, err)
			return
		}
		again := MarshalManifest(m)
		m2, err := UnmarshalManifest(again)
		if err != nil {
			t.Fatalf("re-marshalled manifest rejected: %v", err)
		}
		if m.Gen != m2.Gen || m.WALFirst != m2.WALFirst || len(m.Docs) != len(m2.Docs) {
			t.Fatalf("round trip changed manifest: %+v vs %+v", m, m2)
		}
		for i := range m.Docs {
			if m.Docs[i] != m2.Docs[i] {
				t.Fatalf("entry %d changed: %+v vs %+v", i, m.Docs[i], m2.Docs[i])
			}
		}
	})
}

// FuzzDocSnapRoundTrip does the same for the v8 per-document snapshot
// format (the tree payload is opaque bytes at this layer).
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

// FuzzSnapshotRoundTrip does the same for a session snapshot, the v8
// doc-snap whose tree Restore decodes: the envelope and the tree are
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
