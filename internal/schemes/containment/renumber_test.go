package containment_test

import (
	"errors"
	"fmt"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/schemes/sector"
	"xmldyn/internal/schemes/vector"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// refusing is an algebra that, while armed, finds no room for any
// insertion: every NodeInserted renumbers.
type refusing struct {
	labels.Algebra
	armed bool
}

func (a *refusing) Between(l, r labels.Code) (labels.Code, error) {
	if a.armed {
		return nil, labels.ErrNeedRelabel
	}
	return a.Algebra.Between(l, r)
}

// TestRenumberRendersNothing: a whole-document renumbering runs over the
// label table in place and decides "moved" by comparing codes, so it
// allocates no more than Build does for the same document — no second
// table, and no two renderings a node, moved or not. Under the vector
// mounting a front insert moves about three labels in four (Assign(2n)
// depends on n) and every endpoint is computed again, in Build as in the
// renumbering; under sector the codes behind the new node shift by one
// gap, and the endpoints are a view of the shared list.
func TestRenumberRendersNothing(t *testing.T) {
	for name, inner := range map[string]labels.Algebra{"vector": vector.NewAlgebra(), "sector": sector.NewAlgebra()} {
		doc := workload.BaseDocument(1, 1000)
		alg := &refusing{Algebra: inner, armed: true}
		lab := containment.NewInterval(containment.IntervalConfig{Name: name, Algebra: alg})
		if err := lab.Build(doc); err != nil {
			t.Fatal(err)
		}
		const runs = 5
		fronts := make([]*xmltree.Node, runs+1)
		for i := range fronts {
			fronts[i] = xmltree.NewElement("front")
		}
		was := *lab.Stats()
		renumber := testing.AllocsPerRun(runs, func() {
			n := fronts[0]
			fronts = fronts[1:]
			if err := doc.Root().PrependChild(n); err != nil {
				t.Fatal(err)
			}
			if err := lab.NodeInserted(n); err != nil {
				t.Fatal(err)
			}
		})
		st := *lab.Stats()
		if st.RelabelEvents != runs+1 || st.Assigned != was.Assigned+runs+1 || st.Relabeled < (runs+1)*was.Assigned/2 {
			t.Errorf("%s: %d renumberings moved the counters from %+v to %+v", name, runs+1, was, st)
		}
		if err := labeling.VerifyOrder(lab, doc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		build := testing.AllocsPerRun(runs, func() {
			if err := lab.Build(doc); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s, %d labelled nodes: a renumbering allocates %v times, Build %v", name, doc.LabelledCount(), renumber, build)
		if renumber > build {
			t.Errorf("%s: a renumbering allocates %v times, Build %v", name, renumber, build)
		}
	}
}

// TestRenumberFailsWhole: a renumbering asks the algebra for its 2n
// endpoints before it touches the table it rewrites in place, so when
// they cannot be had the attempt is counted and every label is what it
// was.
func TestRenumberFailsWhole(t *testing.T) {
	// 5 bits hold 1..31: room for 15 nodes' endpoints, not for 16.
	lab := containment.NewInterval(containment.IntervalConfig{
		Name:      "tiny-xrel",
		Algebra:   labels.MustIntAlgebra(labels.IntAlgebraConfig{Name: "tiny-int", Start: 1, Gap: 1, Width: 5, Floor: 1}),
		WithLevel: true,
	})
	doc := xmltree.GenerateWide(14)
	if err := lab.Build(doc); err != nil {
		t.Fatal(err)
	}
	before, stats := labeling.Snapshot(lab, doc), *lab.Stats()
	n := xmltree.NewElement("sixteenth")
	if err := doc.Root().InsertChildAt(7, n); err != nil {
		t.Fatal(err)
	}
	if err := lab.NodeInserted(n); !errors.Is(err, labels.ErrOverflow) {
		t.Fatalf("a 16th node under 5-bit endpoints: %v", err)
	}
	n.Detach()
	if lab.Label(n) != nil {
		t.Errorf("the node that could not be placed is labelled %s", lab.Label(n))
	}
	for x, now := range labeling.Snapshot(lab, doc) {
		if now != before[x] {
			t.Errorf("%s: label %s became %s in a renumbering that failed", x.Name(), before[x], now)
		}
	}
	stats.RelabelEvents++  // the attempt
	stats.OverflowEvents++ // and why it failed
	if got := *lab.Stats(); got != stats {
		t.Errorf("after the failed renumbering: %+v, want %+v", got, stats)
	}
	if err := labeling.VerifyOrder(lab, doc); err != nil {
		t.Error(err)
	}
}

// respelling wraps an algebra's bulk codes in a spelling of its own: the
// same positions, compared equal, and — when respell is set — rendered
// differently at every Assign.
type respelling struct {
	refusing
	respell bool
	calls   int
}

type spelt struct {
	labels.Code
	call int
}

func (c spelt) String() string { return fmt.Sprintf("%s'%d", c.Code, c.call) }

func (a *respelling) Assign(n int) ([]labels.Code, error) {
	cs, err := a.Algebra.Assign(n)
	out := make([]labels.Code, len(cs))
	for i, c := range cs {
		out[i] = spelt{c, a.calls}
	}
	if a.respell {
		a.calls++
	}
	return out, err
}

func (a *respelling) Compare(x, y labels.Code) int {
	return a.Algebra.Compare(x.(spelt).Code, y.(spelt).Code)
}

// TestRenumberCountsARespelledLabel: codes decide whether a renumbering
// moved a label, and where both endpoints compare equal the rendering
// breaks the tie — two spellings of one position, as a vector (2,4) for
// (1,2), are a changed label, written and counted as they were when
// every label was rendered and compared as text.
func TestRenumberCountsARespelledLabel(t *testing.T) {
	for _, respell := range []bool{false, true} {
		alg := &respelling{respell: respell}
		alg.Algebra = labels.MustIntAlgebra(labels.IntAlgebraConfig{Name: "ints", Start: 8, Gap: 8, Width: 16})
		lab := containment.NewInterval(containment.IntervalConfig{Name: "respelt", Algebra: alg})
		doc := xmltree.GenerateWide(3)
		if err := lab.Build(doc); err != nil {
			t.Fatal(err)
		}
		n := xmltree.NewElement("last")
		if err := doc.Root().AppendChild(n); err != nil {
			t.Fatal(err)
		}
		alg.armed = true
		if err := lab.NodeInserted(n); err != nil {
			t.Fatal(err)
		}
		// The three children before the new node keep both positions;
		// the root keeps its begin and gets a later end.
		want := labeling.Stats{Assigned: 5, Relabeled: 1, RelabelEvents: 1}
		if respell {
			want.Relabeled = 4
		}
		if got := *lab.Stats(); got != want {
			t.Errorf("respelt %v: %+v, want %+v", respell, got, want)
		}
		if got, want := lab.Label(doc.Root().FirstChild()).String(), map[bool]string{false: "16'0:24'0", true: "16'1:24'1"}[respell]; got != want {
			t.Errorf("respelt %v: the first child is labelled %s, want %s", respell, got, want)
		}
	}
}

// TestRenumberCountsWhatChanged holds the in-place renumbering to the
// definition it replaced: Relabeled moves by the number of nodes that
// had a label and now render another — whatever the algebra, whether
// its codes can be compared with == (integers, vectors, QED strings) or
// only rendered (an ORDPATH code holds a slice), and wherever in the
// document the gap gave out.
func TestRenumberCountsWhatChanged(t *testing.T) {
	for name, inner := range map[string]labels.Algebra{
		"dense":   labels.MustIntAlgebra(labels.IntAlgebraConfig{Name: "dense", Start: 1, Gap: 1, Width: 32}),
		"sector":  sector.NewAlgebra(),
		"vector":  vector.NewAlgebra(),
		"qed":     qed.NewAlgebra(),
		"ordpath": ordpath.NewAlgebra(),
	} {
		alg := &refusing{Algebra: inner, armed: true}
		lab := containment.NewInterval(containment.IntervalConfig{Name: name, Algebra: alg, WithLevel: true})
		doc := workload.BaseDocument(3, 60)
		if err := lab.Build(doc); err != nil {
			t.Fatal(err)
		}
		moved := 0
		for i := 0; i < 12; i++ {
			elems := doc.LabelledNodes()
			host := elems[(i*7)%len(elems)]
			for host.Kind() != xmltree.KindElement {
				host = host.Parent()
			}
			before, was := labeling.Snapshot(lab, doc), lab.Stats().Relabeled
			n := xmltree.NewElement("n")
			if err := host.InsertChildAt(i%(len(host.Children())+1), n); err != nil {
				t.Fatal(err)
			}
			if err := lab.NodeInserted(n); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			changed := int64(0)
			for x, now := range labeling.Snapshot(lab, doc) {
				if old, ok := before[x]; ok && old != now {
					changed++
				}
			}
			if got := lab.Stats().Relabeled - was; got != changed {
				t.Fatalf("%s, renumbering %d: Relabeled moved by %d, %d labels render differently", name, i, got, changed)
			}
			moved += int(changed)
		}
		if err := labeling.VerifyOrder(lab, doc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if want := (labeling.Stats{Assigned: int64(doc.LabelledCount()), Relabeled: int64(moved), RelabelEvents: 12}); *lab.Stats() != want {
			t.Errorf("%s: %+v, want %+v", name, *lab.Stats(), want)
		}
	}
}
