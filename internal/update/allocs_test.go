package update_test

import (
	"fmt"
	"testing"

	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// TestSingleOpAllocs is the count guard on the path the benchmark's
// label_storm workload measures: single ops on a bare session. The
// ceilings are what the same ops allocated before a single op became a
// transaction of one — the bracket and the undo record must cost no
// allocation. (What is left is the node, its label and the scheme's
// bookkeeping.) With auto-verify on the ceilings are the same: the
// commit-time check compares the new node with its neighbours in place
// and builds no label.
func TestSingleOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, verify := range []bool{false, true} {
		t.Run(fmt.Sprintf("autoverify=%v", verify), func(t *testing.T) { singleOpAllocs(t, verify) })
	}
}

func singleOpAllocs(t *testing.T, verify bool) {
	doc := workload.BaseDocument(1, 1000)
	s, err := update.NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	s.SetAutoVerify(verify)
	root := doc.Root()
	ref := root.Children()[len(root.Children())/2]
	const runs = 100
	// AllocsPerRun calls the function runs+1 times.
	var doomed []*xmltree.Node
	for i := 0; i <= runs; i++ {
		n, err := s.AppendChild(root, "d")
		if err != nil {
			t.Fatal(err)
		}
		doomed = append(doomed, n)
	}
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"InsertBefore", 3, func() { _, err := s.InsertBefore(ref, "w"); fail(err) }},
		{"InsertAfter", 3, func() { _, err := s.InsertAfter(ref, "w"); fail(err) }},
		{"AppendChild", 3, func() { _, err := s.AppendChild(ref, "w"); fail(err) }},
		{"Delete", 0, func() { fail(s.Delete(doomed[0])); doomed = doomed[1:] }},
	} {
		if got := testing.AllocsPerRun(runs, c.op); got > c.max {
			t.Errorf("%s allocates %.1f times per op, want at most %.0f", c.name, got, c.max)
		}
	}
	if verify {
		if got := s.Counters().FullVerifies; got != 1 {
			t.Errorf("FullVerifies = %d: the ops were not verified incrementally", got)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}
