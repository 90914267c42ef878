package update_test

import (
	"fmt"
	"runtime"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// TestSingleOpAllocs is the count guard on the path the benchmark's
// label_storm workload measures: single ops on a bare session. An insert
// allocates its node and nothing else of its own: the bracket and the
// undo record cost nothing, and the QED code is cut from the labelling's
// chunks (labels.QCodes) — their amortised share and the scheme's map
// growth stay under one allocation an op, which AllocsPerRun rounds
// away. With auto-verify on the ceilings are the same: the commit-time
// check compares the new node with its neighbours in place and builds no
// label.
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
		{"InsertBefore", 1, func() { _, err := s.InsertBefore(ref, "w"); fail(err) }},
		{"InsertAfter", 1, func() { _, err := s.InsertAfter(ref, "w"); fail(err) }},
		{"AppendChild", 1, func() { _, err := s.AppendChild(ref, "w"); fail(err) }},
		{"Delete", 0, func() { fail(s.Delete(doomed[0])); doomed = doomed[1:] }},
	} {
		if got := testing.AllocsPerRun(runs, c.op); got > c.max {
			t.Errorf("%s allocates %.1f times per op, want at most %.0f", c.name, got, c.max)
		}
	}
	if verify {
		if got := s.Counters().FullVerifies; got != 0 {
			t.Errorf("FullVerifies = %d: the ops were not verified incrementally", got)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// silentLabels labels nothing and allocates nothing, so that what a
// transaction allocates under it is the transaction's own.
type silentLabels struct {
	labeling.Interface
	stats labeling.Stats
}

func (l *silentLabels) Name() string                     { return "silent" }
func (l *silentLabels) Build(*xmltree.Document) error    { return nil }
func (l *silentLabels) NodeInserted(*xmltree.Node) error { return nil }
func (l *silentLabels) NodeDeleting(*xmltree.Node)       {}
func (l *silentLabels) Stats() *labeling.Stats           { return &l.stats }

// chunkBytes is what a chunk of four 88-byte nodes costs: its size
// class, no more (xmltree.TestNodeSize holds the 88).
const chunkBytes = 352

// TestSessionNodesFromChunks: the nodes a transaction creates — one per
// element insert and per set-text with a value — are cut from the
// session's chunk of four, which outlives the transaction, so a run of
// transactions that create n nodes in total costs ⌈n/4⌉ allocations of
// a chunk each, whatever the transactions' sizes. An aborted
// transaction's nodes are cut like any other's and never cut again.
func TestSessionNodesFromChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	doc, err := xmltree.ParseString("<r/>")
	if err != nil {
		t.Fatal(err)
	}
	s, err := update.NewSession(doc, &silentLabels{})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	// ops(k, text) creates k nodes under root, the last a text node if
	// text.
	ops := func(k int, text bool) []update.Op {
		ops := []update.Op{update.SetTextOp(root, "")} // creates nothing
		for len(ops) < k {
			ops = append(ops, update.AppendChildOp(root, "n"))
		}
		if text {
			return append(ops, update.SetTextOp(root, "v"))
		}
		return append(ops, update.AppendChildOp(root, "n"))
	}
	type txn struct {
		ops   []update.Op
		abort bool
	}
	var txns []txn
	n := 0
	for _, text := range []bool{false, true} {
		for _, k := range []int{1, 2, 3, 5, 17} {
			txns = append(txns, txn{ops: ops(k, text)})
			n += k
		}
		if !text {
			txns = append(txns, txn{ops: ops(3, false), abort: true})
			n += 3
		}
	}
	do := func(x txn) {
		if _, err := s.Stage(x.ops); err != nil {
			t.Fatal(err)
		}
		if x.abort {
			if err := s.Abort(); err != nil {
				t.Fatal(err)
			}
			return
		}
		s.Commit()
	}
	run := func() {
		for _, x := range txns {
			do(x)
		}
	}
	// The first run grows the root's child list and the undo log;
	// detaching the children again keeps both as large. pad uses up the
	// chunk, so that each measured run starts without an uncut node.
	empty := func() {
		for kids := root.Children(); len(kids) > 0; kids = root.Children() {
			kids[len(kids)-1].Detach()
		}
	}
	padding := txn{ops: ops(4-n%4, false)}
	pad := func() {
		do(padding)
		empty()
	}
	run()
	pad()
	// MemStats count the whole process, so another goroutine's
	// allocation can land in a reading but only ever adds to it: of
	// three readings, the one with the fewest allocations is the run's,
	// and a real extra chunk shows in all three.
	var allocs, bytes uint64
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		// Every committed node stays but the four texts a later
		// set-text replaced.
		if got, want := len(root.Children()), n-3-4; got != want {
			t.Fatalf("the run left %d children, want %d", got, want)
		}
		pad()
		if a := after.Mallocs - before.Mallocs; i == 0 || a < allocs {
			allocs, bytes = a, after.TotalAlloc-before.TotalAlloc
		}
	}
	want := uint64(n+3) / 4
	if allocs != want || bytes != want*chunkBytes {
		t.Errorf("%d nodes: %d allocations, %d B; want %d and %d B", n, allocs, bytes, want, want*chunkBytes)
	}
}
