package labels_test

import (
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// stormCounters is what each registry scheme's labelling counted over
// relabelStorm, read at the commit before bulk rows became shared views
// and sibling and whole-document renumbering ran in place (PR 23). A
// relabel that writes only what moved must count what the one that
// wrote everything counted.
var stormCounters = map[string]labeling.Stats{
	"xpath-accelerator": {Assigned: 849, Relabeled: 174958, RelabelEvents: 692},
	"xrel":              {Assigned: 849, Relabeled: 174958, RelabelEvents: 692},
	"sector":            {Assigned: 849, Relabeled: 9148, RelabelEvents: 44},
	"qrs":               {Assigned: 849, Relabeled: 3623, RelabelEvents: 18},
	"deweyid":           {Assigned: 849, Relabeled: 100917, RelabelEvents: 539},
	"ordpath":           {Assigned: 849},
	"dln":               {Assigned: 849, Relabeled: 1242, RelabelEvents: 16, OverflowEvents: 1},
	"lsdx":              {Assigned: 849, Relabeled: 403, RelabelEvents: 1, OverflowEvents: 1},
	"improvedbinary":    {Assigned: 849, Relabeled: 397, RelabelEvents: 1, OverflowEvents: 1},
	"qed":               {Assigned: 849},
	"cdqs":              {Assigned: 849},
	"vector":            {Assigned: 849, Relabeled: 2777, RelabelEvents: 4, OverflowEvents: 4},
	"vector-prefix":     {Assigned: 849},
	"cdbs":              {Assigned: 849, Relabeled: 401, RelabelEvents: 1, OverflowEvents: 1},
	"com-d":             {Assigned: 849},
	"prime":             {Assigned: 849},
	"dde":               {Assigned: 849},
	"cohen":             {Assigned: 849, Relabeled: 100917, RelabelEvents: 539},
}

// relabelStorm drives one session through the label storm's three
// streams — skewed, random, churn — then a chain of nested inserts, and
// last grafts a subtree behind the root's first child: under a dense
// containment scheme the graft's first node exhausts the gap and the
// renumbering labels the nodes whose own NodeInserted is still to come
// (the PR 15 case).
func relabelStorm(t *testing.T, s *update.Session) {
	t.Helper()
	for _, kind := range []workload.Kind{workload.Skewed, workload.Random, workload.Churn} {
		ops := 150
		if kind == workload.Skewed {
			ops = 400 // enough to overflow dln, lsdx, improvedbinary and cdbs
		}
		if _, err := workload.Apply(s, workload.Spec{Kind: kind, Ops: ops, Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}
	// A chain of first children, each inside the last: nested mediants
	// take the vector mounting over its 2^21 ceiling, and it renumbers.
	at := s.Document().Root()
	for i := 0; i < 48; i++ {
		n, err := s.InsertFirstChild(at, "in")
		if err != nil {
			t.Fatal(err)
		}
		at = n
	}
	sub, err := xmltree.ParseString(`<g a="1"><k b="2"><m/><n c="3"/></k><l/></g>`)
	if err != nil {
		t.Fatal(err)
	}
	graft := sub.Root()
	graft.Detach()
	if _, err := s.Do(update.InsertSubtreeAfterOp(s.Document().Root().FirstChild(), graft)); err != nil {
		t.Fatal(err)
	}
}

// TestStormCountersMatchParent: every registry scheme — the containment
// family and the XPath accelerator with the prefix schemes — counts over
// the storm exactly what it counted before relabels shared their rows
// and wrote in place, its labels are in document order, and no shared
// row has been written.
func TestStormCountersMatchParent(t *testing.T) {
	for _, scheme := range core.Registry() {
		lab := scheme.Factory()
		s, err := update.NewSession(workload.BaseDocument(5, 150), lab)
		if err != nil {
			t.Fatalf("%s: %v", scheme.Name, err)
		}
		relabelStorm(t, s)
		// lsdx hands out colliding labels (paper §3.1.2), and com-d is
		// lsdx compressed.
		if err := s.Verify(); err != nil && scheme.Name != "lsdx" && scheme.Name != "com-d" {
			t.Errorf("%s: %v", scheme.Name, err)
		}
		want, pinned := stormCounters[scheme.Name]
		if got := *lab.Stats(); !pinned || got != want {
			t.Errorf("%s: storm counted %+v, want %+v (pinned: %v)", scheme.Name, got, want, pinned)
		}
	}
	if len(stormCounters) != len(core.Registry()) {
		t.Errorf("%d schemes pinned, %d in the registry", len(stormCounters), len(core.Registry()))
	}
	if n, err := labels.VerifyBulks(registryAlgebras()...); err != nil || n == 0 {
		t.Errorf("after the storm: %d kept codes recomputed, %v", n, err)
	}
}
