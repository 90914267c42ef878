package store

import (
	"bytes"
	"errors"
	"testing"

	"xmldyn/internal/labels"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// buildRepo is a scheme-diverse repository's documents, in name order,
// each with a real doc-tree image.
func buildRepo() []DocSnap {
	gen := xmltree.Generate(xmltree.GenOptions{Seed: 7, MaxDepth: 4, MaxChildren: 4, AttrProb: 0.3, TextProb: 0.4})
	return []DocSnap{
		{Name: "books", Scheme: "qed", Tree: update.EncodeDocTree(xmltree.SampleBook())},
		{Name: "examples", Scheme: "deweyid", Tree: update.EncodeDocTree(xmltree.ExampleTree())},
		{Name: "generated", Scheme: "ordpath", Tree: update.EncodeDocTree(gen)},
	}
}

// requireSameDocs fails unless got holds want's documents, in order.
func requireSameDocs(t *testing.T, got, want []DocSnap) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("docs = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Scheme != want[i].Scheme || !bytes.Equal(got[i].Tree, want[i].Tree) {
			t.Fatalf("doc %d = %s/%s (%d tree bytes), want %s/%s (%d)", i,
				got[i].Name, got[i].Scheme, len(got[i].Tree), want[i].Name, want[i].Scheme, len(want[i].Tree))
		}
	}
}

// TestRepoRoundTrip: an image decodes to the documents it was made of,
// each tree a window of the image rather than a copy.
func TestRepoRoundTrip(t *testing.T) {
	docs := buildRepo()
	data := MarshalImage(docs)
	got, err := UnmarshalImage(data)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDocs(t, got, docs)
	for _, d := range got {
		if !bytes.Contains(data, d.Tree) || cap(d.Tree) != len(d.Tree) {
			t.Fatalf("%s: tree is not a capped window of the image", d.Name)
		}
	}
}

func TestRepoEmpty(t *testing.T) {
	got, err := UnmarshalImage(MarshalImage(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty image: %v, %d docs", err, len(got))
	}
}

// TestRepoVersionMismatch: a session image is a one-entry repository
// image, so a many-document image is not a session image; a pack that
// references an older one is not an image at all; and neither decoder
// reads an earlier format (version 1, the row-table session snapshot,
// 2 its container, 7 the image of version-8 doc-snaps).
func TestRepoVersionMismatch(t *testing.T) {
	docs := buildRepo()
	if _, err := UnmarshalDocSnap(MarshalImage(docs)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("repository image via UnmarshalDocSnap: %v, want ErrCorrupt", err)
	}
	if got, err := UnmarshalImage(MarshalDocSnap(docs[0])); err != nil || len(got) != 1 {
		t.Fatalf("session image via UnmarshalImage: %d documents, %v", len(got), err)
	}
	ref := Pack{Gen: 2, Docs: []PackDoc{{Name: "books", Ref: Ref{Gen: 1, Off: 9, Len: 30}}}}
	if _, err := UnmarshalImage(MarshalPack(&ref, nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a pack referencing an older one via UnmarshalImage: %v, want ErrCorrupt", err)
	}
	for _, ver := range []byte{1, 2, 7} {
		old := sealRecord(append([]byte(magic), ver, 0))
		if _, err := UnmarshalImage(old); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d via UnmarshalImage: %v", ver, err)
		}
		if _, err := UnmarshalDocSnap(old); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d via UnmarshalDocSnap: %v", ver, err)
		}
	}
}

// TestRepoDupNameRejected: names are strictly increasing, so an image
// naming a document twice, or out of order, is corrupt.
func TestRepoDupNameRejected(t *testing.T) {
	docs := buildRepo()
	for _, bad := range [][]DocSnap{{docs[0], docs[0]}, {docs[1], docs[0]}} {
		if _, err := UnmarshalImage(MarshalImage(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s then %s: %v, want ErrCorrupt", bad[0].Name, bad[1].Name, err)
		}
	}
}

func TestRepoChecksumDetectsFlips(t *testing.T) {
	data := MarshalImage(buildRepo())
	for _, pos := range []int{6, len(data) / 3, len(data) / 2, len(data) - 3} {
		bad := append([]byte{}, data...)
		bad[pos] ^= 0x20
		if _, err := UnmarshalImage(bad); err == nil {
			t.Fatalf("flip at %d accepted", pos)
		}
	}
}

func TestRepoTruncationRejected(t *testing.T) {
	data := MarshalImage(buildRepo())
	for cut := 0; cut < len(data)-1; cut += 7 {
		if _, err := UnmarshalImage(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// lyingImage is a size-byte image whose entry count claims 2^40
// documents and whose first name claims 2^40 bytes, padded out with
// bytes that back neither. A decoder that reserved by either claim
// would allocate terabytes.
func lyingImage(size int) []byte {
	out := append([]byte(magic), VersionPack, 0, 0)
	out = labels.AppendLEB128(out, 1<<40)
	out = labels.AppendLEB128(out, 1<<40)
	return append(out, make([]byte, max(0, size-len(out)))...)
}

// TestRepoLiesReserveNothing: a rejected image costs its error, however
// long it is and whatever its count and lengths claim.
func TestRepoLiesReserveNothing(t *testing.T) {
	for _, size := range []int{1 << 10, 1 << 14, 1 << 17} {
		img := lyingImage(size)
		var err error
		objects, used := memUse(func() { _, err = UnmarshalImage(img) })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d bytes of lies: %v, want ErrCorrupt", size, err)
		}
		if objects > 16 || used > 4096 {
			t.Errorf("%d bytes of lies: rejected after %d allocations, %d bytes", size, objects, used)
		}
	}
}
