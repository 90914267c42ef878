package workload

import (
	"math/rand"
	"testing"

	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

func session(t *testing.T, nodes int) *update.Session {
	t.Helper()
	doc := BaseDocument(1, nodes)
	s, err := update.NewSession(doc, qed.NewPrefix())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Random: "random", Uniform: "uniform", Skewed: "skewed",
		AppendOnly: "append-only", Churn: "churn",
	} {
		if k.String() != want {
			t.Errorf("%d: %s", k, k.String())
		}
	}
}

func TestApplyShapes(t *testing.T) {
	for _, kind := range []Kind{Random, Uniform, Skewed, AppendOnly, Churn} {
		s := session(t, 100)
		beforeCount := s.Document().LabelledCount()
		res, err := Apply(s, Spec{Kind: kind, Ops: 50, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Applied != 50 {
			t.Errorf("%s: applied %d", kind, res.Applied)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		after := s.Document().LabelledCount()
		if kind != Churn && after != beforeCount+50 {
			t.Errorf("%s: node count %d -> %d", kind, beforeCount, after)
		}
	}
}

func TestSkewedHitsOnePosition(t *testing.T) {
	s := session(t, 60)
	doc := s.Document()
	target := skewTarget(doc)
	parent := target.Parent()
	before := len(parent.Children())
	if _, err := Apply(s, Spec{Kind: Skewed, Ops: 30, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := len(parent.Children()); got != before+30 {
		t.Errorf("target's parent gained %d children, want 30", got-before)
	}
	// All inserted nodes sit directly before the target.
	idx := target.Index()
	for i := idx - 30; i < idx; i++ {
		if parent.Children()[i].Name() != "sk" {
			t.Fatalf("child %d is %q", i, parent.Children()[i].Name())
		}
	}
}

func TestUniformRotates(t *testing.T) {
	s := session(t, 40)
	if _, err := Apply(s, Spec{Kind: Uniform, Ops: 80, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestChurnDeletes(t *testing.T) {
	s := session(t, 150)
	if _, err := Apply(s, Spec{Kind: Churn, Ops: 120, Seed: 5, DeleteRatio: 0.5}); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Deletes == 0 {
		t.Error("churn never deleted")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := s.Document().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyErrorsSurface(t *testing.T) {
	// DeweyID with a tiny document: skewed insertion relabels but never
	// errors; an unknown kind must error.
	doc := BaseDocument(2, 30)
	s, err := update.NewSession(doc, dewey.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(s, Spec{Kind: Kind(99), Ops: 1}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Apply(s, Spec{Kind: Skewed, Ops: 20, Seed: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyMatchesWalkPerOp: Apply keeps its element list in step with
// the document, so its op stream is the one a fresh walk before every op
// would pick — the same refs, the same positions, the same tree.
func TestApplyMatchesWalkPerOp(t *testing.T) {
	walkPerOp := func(s *update.Session, spec Spec) error {
		rng := rand.New(rand.NewSource(spec.Seed))
		doc := s.Document()
		for i := 0; i < spec.Ops; i++ {
			elems := elements(doc)
			ref := elems[i%len(elems)]
			if spec.Kind != Uniform {
				ref = elems[rng.Intn(len(elems))]
			}
			if spec.Kind == Churn && rng.Float64() < 0.4 && ref != doc.Root() {
				if err := s.Delete(ref); err != nil {
					return err
				}
				continue
			}
			if _, err := s.Do(insertOpAround(rng, doc, ref)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, kind := range []Kind{Random, Uniform, Churn} {
		for seed := int64(1); seed <= 4; seed++ {
			spec := Spec{Kind: kind, Ops: 300, Seed: seed}
			got, want := session(t, 80), session(t, 80)
			if _, err := Apply(got, spec); err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			if err := walkPerOp(want, spec); err != nil {
				t.Fatalf("%s seed %d: reference: %v", kind, seed, err)
			}
			if got.Document().XML() != want.Document().XML() {
				t.Errorf("%s seed %d: Apply's tree differs from a walk per op", kind, seed)
			}
		}
	}
}

func TestBaseDocumentDeterministic(t *testing.T) {
	a := BaseDocument(9, 120)
	b := BaseDocument(9, 120)
	if a.XML() != b.XML() {
		t.Error("BaseDocument not deterministic")
	}
	if n := a.LabelledCount(); n < 100 || n > 140 {
		t.Errorf("target size: %d", n)
	}
	if BaseDocument(9, 0).LabelledCount() < 150 {
		t.Error("default size")
	}
}

// TestInsertOpAroundCoversPositions: the op generator reaches all four
// insertion positions and respects the root special case.
func TestInsertOpAroundCoversPositions(t *testing.T) {
	s := session(t, 40)
	doc := s.Document()
	root := doc.Root()
	seen := map[update.OpKind]bool{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		op := insertOpAround(rng, doc, root)
		seen[op.Kind] = true
		if op.Kind == update.OpInsertBefore || op.Kind == update.OpInsertAfter {
			t.Fatal("sibling insert relative to root")
		}
	}
	var target *xmltree.Node
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		if n != root && n.Kind() == xmltree.KindElement {
			target = n
			return false
		}
		return true
	})
	for i := 0; i < 200; i++ {
		seen[insertOpAround(rng, doc, target).Kind] = true
	}
	for _, k := range []update.OpKind{update.OpInsertBefore, update.OpInsertAfter, update.OpInsertFirstChild, update.OpAppendChild} {
		if !seen[k] {
			t.Fatalf("position %v never generated", k)
		}
	}
}
