package encoding

import (
	"strings"
	"testing"

	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/xmltree"
)

// TestFigure2Table verifies the encoding table of the paper's Figure 2:
// every row's pre/post label, node type, parent, name and value.
func TestFigure2Table(t *testing.T) {
	enc, err := New(xmltree.SampleBook(), containment.NewPrePost())
	if err != nil {
		t.Fatal(err)
	}
	rows := enc.Table()
	want := []Row{
		{"0,9", xmltree.KindElement, "", "book", ""},
		{"1,1", xmltree.KindElement, "0,9", "title", "Wayfarer"},
		{"2,0", xmltree.KindAttribute, "1,1", "genre", "Fantasy"},
		{"3,2", xmltree.KindElement, "0,9", "author", "Matthew Dickens"},
		{"4,8", xmltree.KindElement, "0,9", "publisher", ""},
		{"5,5", xmltree.KindElement, "4,8", "editor", ""},
		{"6,3", xmltree.KindElement, "5,5", "name", "Destiny Image"},
		{"7,4", xmltree.KindElement, "5,5", "address", "USA"},
		{"8,7", xmltree.KindElement, "4,8", "edition", "1.0"},
		{"9,6", xmltree.KindAttribute, "8,7", "year", "2004"},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, rows[i], want[i])
		}
	}
}

func TestWriteTable(t *testing.T) {
	enc, err := New(xmltree.SampleBook(), containment.NewPrePost())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := enc.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, needle := range []string{"Label", "Node Type", "0,9", "Attribute", "Destiny Image", "2004"} {
		if !strings.Contains(out, needle) {
			t.Errorf("table missing %q:\n%s", needle, out)
		}
	}
}

// TestReconstructSampleBook is Definition 2's requirement: table ->
// textual document, identical to the original.
func TestReconstructSampleBook(t *testing.T) {
	original := xmltree.SampleBook()
	enc, err := New(original.Clone(), containment.NewPrePost())
	if err != nil {
		t.Fatal(err)
	}
	re, err := Reconstruct(enc.Table())
	if err != nil {
		t.Fatal(err)
	}
	if re.XML() != original.XML() {
		t.Fatalf("reconstruction mismatch:\n%s\n%s", re.XML(), original.XML())
	}
}

func TestReconstructUnderPrefixSchemes(t *testing.T) {
	for _, mk := range []func() *Document{
		func() *Document { e, _ := New(xmltree.SampleBook(), dewey.New()); return e },
		func() *Document { e, _ := New(xmltree.SampleBook(), qed.NewPrefix()); return e },
	} {
		enc := mk()
		re, err := Reconstruct(enc.Table())
		if err != nil {
			t.Fatal(err)
		}
		if re.XML() != xmltree.SampleBook().XML() {
			t.Fatalf("%s: reconstruction mismatch", enc.lab.Name())
		}
	}
}

func TestReconstructGenerated(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		doc := xmltree.Generate(xmltree.GenOptions{Seed: seed, MaxDepth: 4, MaxChildren: 4, AttrProb: 0.5, TextProb: 0.6})
		enc, err := New(doc.Clone(), dewey.New())
		if err != nil {
			t.Fatal(err)
		}
		re, err := Reconstruct(enc.Table())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if re.XML() != doc.XML() {
			t.Fatalf("seed %d mismatch:\n%s\n%s", seed, re.XML(), doc.XML())
		}
	}
}

func TestReconstructErrors(t *testing.T) {
	cases := [][]Row{
		{{Label: "1", Kind: xmltree.KindElement, Parent: "0", Name: "orphan"}},
		{{Label: "1", Kind: xmltree.KindAttribute, Parent: "", Name: "a", Value: "v"}},
		{
			{Label: "1", Kind: xmltree.KindElement, Parent: "", Name: "r1"},
			{Label: "2", Kind: xmltree.KindElement, Parent: "", Name: "r2"},
		},
		{},
		{{Label: "1", Kind: xmltree.KindText, Parent: "", Name: "t"}},
	}
	for i, rows := range cases {
		if _, err := Reconstruct(rows); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
