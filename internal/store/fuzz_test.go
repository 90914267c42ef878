package store

import (
	"bytes"
	"errors"
	"testing"

	"xmldyn/internal/encoding"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/xmltree"
)

// FuzzRepoRoundTrip feeds arbitrary bytes to the v2 container decoder:
// it must never panic, and whenever it accepts the input, the decoded
// documents must survive a marshal/unmarshal round trip unchanged.
// (Byte-level canonicality does not hold: LEB128 tolerates non-minimal
// encodings on decode, so equality is checked on the decoded form.)
func FuzzRepoRoundTrip(f *testing.F) {
	e1, err := encoding.New(xmltree.SampleBook(), qed.NewPrefix())
	if err != nil {
		f.Fatal(err)
	}
	e2, err := encoding.New(xmltree.ExampleTree(), dewey.New())
	if err != nil {
		f.Fatal(err)
	}
	valid, err := MarshalRepo([]DocSnapshot{
		{Name: "books", Scheme: e1.Labeling().Name(), Rows: e1.Table()},
		{Name: "examples", Scheme: e2.Labeling().Name(), Rows: e2.Table()},
	})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := MarshalRepo(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(empty)
	f.Add([]byte("XDYN"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := UnmarshalRepo(data)
		if err != nil {
			return
		}
		again, err := MarshalRepo(docs)
		if err != nil {
			t.Fatalf("accepted container fails to re-marshal: %v", err)
		}
		docs2, err := UnmarshalRepo(again)
		if err != nil {
			t.Fatalf("re-marshalled container rejected: %v", err)
		}
		if !reflectEqualDocs(docs, docs2) {
			t.Fatalf("round trip changed documents:\n in  %+v\n out %+v", docs, docs2)
		}
	})
}

// reflectEqualDocs compares two snapshot slices field by field.
func reflectEqualDocs(a, b []DocSnapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Scheme != b[i].Scheme || len(a[i].Rows) != len(b[i].Rows) {
			return false
		}
		for j := range a[i].Rows {
			if a[i].Rows[j] != b[i].Rows[j] {
				return false
			}
		}
	}
	return true
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

// FuzzDocSnapRoundTrip does the same for the v6 per-document snapshot
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

// requireTypedError fails the test when a decoder rejection is not one
// of the package's typed errors — callers triage on errors.Is, so an
// untyped rejection is an API break.
func requireTypedError(t *testing.T, err error) {
	t.Helper()
	for _, want := range []error{ErrBadMagic, ErrBadVersion, ErrCorrupt, ErrBadChecksum} {
		if errors.Is(err, want) {
			return
		}
	}
	t.Fatalf("rejection is not a typed store error: %v", err)
}

// FuzzSnapshotRoundTrip does the same for the v1 single-document format.
func FuzzSnapshotRoundTrip(f *testing.F) {
	enc, err := encoding.New(xmltree.SampleBook(), qed.NewPrefix())
	if err != nil {
		f.Fatal(err)
	}
	valid, err := Marshal(enc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Unmarshal(data)
		if err != nil {
			return
		}
		again, err := MarshalRows(snap.Scheme, snap.Rows)
		if err != nil {
			t.Fatalf("accepted snapshot fails to re-marshal: %v", err)
		}
		snap2, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-marshalled snapshot rejected: %v", err)
		}
		if snap.Scheme != snap2.Scheme || len(snap.Rows) != len(snap2.Rows) {
			t.Fatalf("round trip changed snapshot: %+v vs %+v", snap, snap2)
		}
		for i := range snap.Rows {
			if snap.Rows[i] != snap2.Rows[i] {
				t.Fatalf("row %d changed: %+v vs %+v", i, snap.Rows[i], snap2.Rows[i])
			}
		}
	})
}
