package store

import (
	"errors"
	"strings"
	"testing"

	"xmldyn/internal/encoding"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/xmltree"
)

// buildRepo builds a scheme-diverse multi-document container from real
// encoded documents.
func buildRepo(t *testing.T) []DocSnapshot {
	t.Helper()
	var docs []DocSnapshot
	add := func(name string, enc *encoding.Document) {
		docs = append(docs, DocSnapshot{Name: name, Scheme: enc.Labeling().Name(), Rows: enc.Table()})
	}
	e1, err := encoding.New(xmltree.SampleBook(), qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	add("books", e1)
	e2, err := encoding.New(xmltree.ExampleTree(), dewey.New())
	if err != nil {
		t.Fatal(err)
	}
	add("examples", e2)
	e3, err := encoding.New(xmltree.Generate(xmltree.GenOptions{Seed: 7, MaxDepth: 4, MaxChildren: 4, AttrProb: 0.3, TextProb: 0.4}), ordpath.New())
	if err != nil {
		t.Fatal(err)
	}
	add("generated", e3)
	return docs
}

func TestRepoRoundTrip(t *testing.T) {
	docs := buildRepo(t)
	data, err := MarshalRepo(docs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalRepo(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(docs) {
		t.Fatalf("docs = %d, want %d", len(got), len(docs))
	}
	for i := range docs {
		if got[i].Name != docs[i].Name || got[i].Scheme != docs[i].Scheme {
			t.Fatalf("doc %d = %s/%s, want %s/%s", i, got[i].Name, got[i].Scheme, docs[i].Name, docs[i].Scheme)
		}
		if len(got[i].Rows) != len(docs[i].Rows) {
			t.Fatalf("doc %s rows = %d, want %d", got[i].Name, len(got[i].Rows), len(docs[i].Rows))
		}
		for j := range docs[i].Rows {
			if got[i].Rows[j] != docs[i].Rows[j] {
				t.Fatalf("doc %s row %d = %+v, want %+v", got[i].Name, j, got[i].Rows[j], docs[i].Rows[j])
			}
		}
		doc, err := got[i].Rebuild()
		if err != nil {
			t.Fatalf("doc %s rebuild: %v", got[i].Name, err)
		}
		if doc.Root() == nil {
			t.Fatalf("doc %s rebuilt empty", got[i].Name)
		}
	}
}

func TestRepoEmpty(t *testing.T) {
	data, err := MarshalRepo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalRepo(data)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty container: %v, %d docs", err, len(got))
	}
}

func TestRepoVersionMismatch(t *testing.T) {
	// A v1 snapshot is not a container and vice versa.
	docs := buildRepo(t)
	repoData, err := MarshalRepo(docs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(repoData); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v2 via Unmarshal: %v", err)
	}
	single, err := MarshalRows("qed", docs[0].Rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalRepo(single); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v1 via UnmarshalRepo: %v", err)
	}
}

func TestRepoDupNameRejected(t *testing.T) {
	docs := buildRepo(t)[:1]
	dup := append([]DocSnapshot{}, docs[0], docs[0])
	if _, err := MarshalRepo(dup); !errors.Is(err, ErrDupName) {
		t.Fatalf("marshal dup: %v", err)
	}
}

func TestRepoChecksumDetectsFlips(t *testing.T) {
	data, err := MarshalRepo(buildRepo(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{6, len(data) / 3, len(data) / 2, len(data) - 3} {
		bad := append([]byte{}, data...)
		bad[pos] ^= 0x20
		if _, err := UnmarshalRepo(bad); err == nil {
			t.Fatalf("flip at %d accepted", pos)
		}
	}
}

func TestRepoTruncationRejected(t *testing.T) {
	data, err := MarshalRepo(buildRepo(t))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data)-1; cut += 7 {
		if _, err := UnmarshalRepo(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestRowCountBoundTightened is the regression test for the sanity
// bound: a crafted header claiming more rows than the buffer could
// possibly hold (at >=5 bytes per row) must be rejected as implausible
// even when the claimed count is smaller than the buffer length, which
// the old `count > len(data)` check accepted.
func TestRowCountBoundTightened(t *testing.T) {
	var data []byte
	data = append(data, magic...)
	data = append(data, VersionSnapshot)
	data = appendString(data, "qed")
	// Pad so len(data) ends up well above the claimed count.
	claimed := uint64(64)
	data = append(data, labels.EncodeLEB128(claimed)...)
	for len(data) < 100 {
		data = append(data, 0)
	}
	if claimed >= uint64(len(data)) {
		t.Fatalf("test setup: claimed %d must be below len %d", claimed, len(data))
	}
	if claimed*minRowBytes <= uint64(len(data)) {
		t.Fatalf("test setup: claimed %d rows must exceed the %d-byte budget", claimed, len(data))
	}
	_, err := Unmarshal(data)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "implausible row count") {
		t.Fatalf("err = %v, want implausible row count", err)
	}
}
