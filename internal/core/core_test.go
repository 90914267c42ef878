package core

import (
	"strings"
	"testing"

	"xmldyn/internal/labels"
)

func TestPublishedMatrixShape(t *testing.T) {
	rows := PublishedMatrix()
	if len(rows) != 12 {
		t.Fatalf("Figure 7 has 12 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Grades) != len(AllProperties) {
			t.Errorf("%s: %d grades", r.Scheme, len(r.Grades))
		}
	}
	// Spot-check cells against the printed figure.
	qed, _ := PublishedRow("qed")
	if qed.Grade(OverflowFree) != Full || qed.Grade(CompactEncoding) != None {
		t.Error("QED row mismatch")
	}
	acc, _ := PublishedRow("xpath-accelerator")
	if acc.Order != labels.OrderGlobal || acc.Encoding != labels.RepFixed || acc.Grade(PersistentLabels) != None {
		t.Error("XPath Accelerator row mismatch")
	}
	vec, _ := PublishedRow("vector")
	if vec.Grade(DivisionFree) != Full || vec.Grade(LevelEncoding) != None {
		t.Error("Vector row mismatch")
	}
	if _, ok := PublishedRow("nope"); ok {
		t.Error("unknown scheme found")
	}
}

// TestSection52NoTwoSchemesShareProperties checks the paper's §5.2
// claim — "No two labelling schemes share the same properties" —
// against the printed matrix itself. The claim does not in fact hold
// for Figure 7 as published: XPath Accelerator and XRel have identical
// rows, and so do DeweyID and LSDX. The analysis surfaces exactly those
// two pairs (a reproduction finding recorded in docs/EXPERIMENTS.md, C8).
func TestSection52NoTwoSchemesShareProperties(t *testing.T) {
	a := AnalyzeMatrix(PublishedMatrix())
	if len(a.DuplicateSignatures) != 2 {
		t.Fatalf("duplicate signatures: %v", a.DuplicateSignatures)
	}
	want := map[[2]string]bool{
		{"xpath-accelerator", "xrel"}: true,
		{"deweyid", "lsdx"}:           true,
	}
	for _, d := range a.DuplicateSignatures {
		if !want[d] {
			t.Fatalf("unexpected duplicate pair: %v", d)
		}
	}
}

// TestSection52CDQSMostGeneric reproduces: "the CDQS labelling scheme
// satisfies the greater number of properties".
func TestSection52CDQSMostGeneric(t *testing.T) {
	a := AnalyzeMatrix(PublishedMatrix())
	if a.MostGeneric != "cdqs" {
		t.Fatalf("most generic = %s, want cdqs", a.MostGeneric)
	}
	if a.MostGenericFull != 6 {
		t.Fatalf("cdqs full count = %d, want 6", a.MostGenericFull)
	}
}

func TestComplianceAndPropertyStrings(t *testing.T) {
	if Full.String() != "F" || Partial.String() != "P" || None.String() != "N" {
		t.Error("compliance strings")
	}
	for _, p := range AllProperties {
		if strings.Contains(p.String(), "property(") {
			t.Errorf("missing name for property %d", p)
		}
		if p.Short() == "??" {
			t.Errorf("missing short name for property %d", p)
		}
	}
}

func TestRegistryCoversMatrix(t *testing.T) {
	reg := Registry()
	inMatrix := 0
	names := make(map[string]bool)
	for _, s := range reg {
		if names[s.Name] {
			t.Errorf("duplicate registry name %s", s.Name)
		}
		names[s.Name] = true
		if s.InMatrix {
			inMatrix++
			if _, ok := PublishedRow(s.Name); !ok {
				t.Errorf("%s marked InMatrix but has no published row", s.Name)
			}
		}
	}
	if inMatrix != 12 {
		t.Errorf("registry covers %d of 12 matrix rows", inMatrix)
	}
	for _, p := range PublishedMatrix() {
		if !names[p.Scheme] {
			t.Errorf("published scheme %s missing from registry", p.Scheme)
		}
	}
	if _, ok := SchemeByName("qed"); !ok {
		t.Error("SchemeByName(qed) failed")
	}
	if _, ok := SchemeByName("nope"); ok {
		t.Error("SchemeByName(nope) succeeded")
	}
}

func TestRenderMatrix(t *testing.T) {
	var sb strings.Builder
	if err := RenderMatrix(&sb, PublishedMatrix()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, needle := range []string{"Labelling Scheme", "Pe", "cdqs", "Hybrid", "Variable"} {
		if !strings.Contains(out, needle) {
			t.Errorf("matrix missing %q:\n%s", needle, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 14 { // header + rule + 12 rows
		t.Errorf("matrix lines = %d", len(lines))
	}
}

func TestDiffMatricesSelf(t *testing.T) {
	diffs, cells := DiffMatrices(PublishedMatrix(), PublishedMatrix())
	if len(diffs) != 0 {
		t.Fatalf("self diff: %v", diffs)
	}
	if cells != 12*10 {
		t.Fatalf("cells = %d, want 120", cells)
	}
	// A doctored cell must surface.
	mod := PublishedMatrix()
	mod[0].Grades[PersistentLabels] = Full
	diffs, _ = DiffMatrices(PublishedMatrix(), mod)
	if len(diffs) != 1 || diffs[0].Column != PersistentLabels.String() {
		t.Fatalf("doctored diff: %v", diffs)
	}
}
