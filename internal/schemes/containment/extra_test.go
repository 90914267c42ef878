package containment_test

import (
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

func TestNewXRelProperties(t *testing.T) {
	lab := containment.NewXRel()
	if lab.Name() != "xrel" {
		t.Errorf("name: %s", lab.Name())
	}
	doc := xmltree.SampleBook()
	s, err := update.NewSession(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	// Dense numbering: the very first interior insertion renumbers.
	if _, err := s.InsertFirstChild(doc.Root(), "front"); err != nil {
		t.Fatal(err)
	}
	if st := lab.Stats(); st.Relabeled == 0 {
		t.Error("XRel should renumber on front insertion")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// Level capability present (XRel stores paths; our model levels).
	if _, ok := lab.(labeling.LevelByLabel); !ok {
		t.Error("XRel should expose levels")
	}
}

func TestNewGapIntervalAbsorbsThenRenumbers(t *testing.T) {
	lab := containment.NewGapInterval(64)
	doc := xmltree.GenerateWide(4)
	s, err := update.NewSession(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	ref := doc.Root().Children()[2]
	absorbed := 0
	for i := 0; i < 50; i++ {
		if _, err := s.InsertBefore(ref, "g"); err != nil {
			t.Fatal(err)
		}
		if lab.Stats().RelabelEvents > 0 {
			break
		}
		absorbed++
	}
	if absorbed < 2 || absorbed >= 50 {
		t.Fatalf("gap absorbed %d insertions", absorbed)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLevelledIntervalExposesAlgebra(t *testing.T) {
	// The levelled wrapper must still expose the embedded interval's
	// algebra for the framework's division/recursion instrumentation.
	lab, ok := containment.NewXRel().(*containment.LevelledInterval)
	if !ok {
		t.Fatal("XRel is not a LevelledInterval")
	}
	if lab.Algebra() == nil {
		t.Fatal("algebra not exposed")
	}
}

func TestIntervalLabelRendering(t *testing.T) {
	doc := xmltree.SampleBook()
	withLevel := containment.NewXRel()
	if err := withLevel.Build(doc); err != nil {
		t.Fatal(err)
	}
	l := withLevel.Label(doc.FindElement("editor")).String()
	if l == "" {
		t.Fatal("empty rendered label")
	}
	// Levelled labels render with the @depth suffix.
	if want := "@2"; l[len(l)-2:] != want {
		t.Errorf("label %q should end with %q", l, want)
	}
}
