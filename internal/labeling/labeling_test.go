package labeling_test

import (
	"strings"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/xmltree"
)

func TestHelpers(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := dewey.New()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	if got := labeling.TotalBits(lab, doc); got <= 0 {
		t.Errorf("total bits: %d", got)
	}
	mean := labeling.MeanBits(lab, doc)
	if mean <= 0 || mean != float64(labeling.TotalBits(lab, doc))/10 {
		t.Errorf("mean bits: %f", mean)
	}
	snap := labeling.Snapshot(lab, doc)
	if len(snap) != 10 {
		t.Errorf("snapshot size: %d", len(snap))
	}
	if snap[doc.FindElement("book")] != "1" {
		t.Errorf("book label: %s", snap[doc.FindElement("book")])
	}
	if err := labeling.VerifyOrder(lab, doc); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBitsEmptyDocument(t *testing.T) {
	doc := xmltree.NewDocument()
	lab := dewey.New()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	if got := labeling.MeanBits(lab, doc); got != 0 {
		t.Errorf("empty doc mean: %f", got)
	}
}

func TestVerifyOrderReportsUnlabelled(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := dewey.New()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	// Attach a node behind the labeling's back: VerifyOrder must name
	// the problem instead of panicking.
	if err := doc.Root().AppendChild(xmltree.NewElement("stowaway")); err != nil {
		t.Fatal(err)
	}
	err := labeling.VerifyOrder(lab, doc)
	if err == nil || !strings.Contains(err.Error(), `unlabelled node "stowaway"`) {
		t.Fatalf("VerifyOrder must name the unlabelled node, got: %v", err)
	}
}

// TestVerifyOrderChecksLoneFirstNode: a document whose only labellable
// node is unlabelled has no adjacent pair, and must still fail.
func TestVerifyOrderChecksLoneFirstNode(t *testing.T) {
	doc := xmltree.NewDocument()
	lab := dewey.New()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	if err := doc.SetRoot(xmltree.NewElement("only")); err != nil {
		t.Fatal(err)
	}
	err := labeling.VerifyOrder(lab, doc)
	if err == nil || !strings.Contains(err.Error(), `unlabelled node "only"`) {
		t.Fatalf("VerifyOrder on a lone unlabelled root: %v", err)
	}
}

// TestOrderCheckRuns: a run restarted after a given predecessor checks
// exactly the pairs fed to it, and reports a violation with both ends.
func TestOrderCheckRuns(t *testing.T) {
	doc := xmltree.SampleBook()
	lab := dewey.New()
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	title, author := doc.FindElement("title"), doc.FindElement("author")
	c := labeling.OrderCheck{Lab: lab}
	if err := c.Restart(title); err != nil {
		t.Fatal(err)
	}
	if err := c.Next(author); err != nil {
		t.Fatalf("title < author: %v", err)
	}
	if err := c.Next(title); err == nil || !strings.Contains(err.Error(), "author") || !strings.Contains(err.Error(), "title") {
		t.Fatalf("author !< title must be reported with both nodes: %v", err)
	}
	if err := c.Restart(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Next(author); err != nil {
		t.Fatalf("a run starting the document has no pair to fail: %v", err)
	}
}

func TestStatsReset(t *testing.T) {
	st := &labeling.Stats{Assigned: 5, Relabeled: 3, RelabelEvents: 1, OverflowEvents: 2}
	if got, want := st.Relabelling(), (labeling.Stats{Relabeled: 3, RelabelEvents: 1, OverflowEvents: 2}); got != want || st.Assigned != 5 {
		t.Errorf("Relabelling: %+v (receiver %+v), want %+v and the receiver untouched", got, *st, want)
	}
	st.Reset()
	if *st != (labeling.Stats{}) {
		t.Errorf("reset: %+v", *st)
	}
}

// TestOrderCheckAllocatesNothing: verifying a document whose labels are
// in order builds no label on a prefix scheme — CompareNodes decides
// every adjacent pair on the tree.
func TestOrderCheckAllocatesNothing(t *testing.T) {
	for name, mk := range map[string]func() labeling.Interface{
		"qed": qed.NewPrefix, "deweyid": dewey.New, "ordpath": ordpath.New,
	} {
		doc := xmltree.Generate(xmltree.GenOptions{Seed: 3, MaxDepth: 6, MaxChildren: 8, AttrProb: 0.3, TextProb: 0.5, TargetNodes: 1000})
		lab := mk()
		if err := lab.Build(doc); err != nil {
			t.Fatal(err)
		}
		nodes := doc.LabelledNodes()
		if len(nodes) < 1000 {
			t.Fatalf("generated %d labelled nodes, want at least 1000", len(nodes))
		}
		allocs := testing.AllocsPerRun(10, func() {
			c := labeling.OrderCheck{Lab: lab}
			for _, n := range nodes {
				if err := c.Next(n); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: an OrderCheck run over %d nodes allocates %.0f times, want 0", name, len(nodes), allocs)
		}
	}
}
