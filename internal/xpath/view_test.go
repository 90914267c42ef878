package xpath_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// address is a node's position as the chain of Index values from the
// document node down, attributes marked: the same string for a live
// node and for its counterpart in a version view.
func address(n *xmltree.Node) string {
	var parts []string
	for ; n.Parent() != nil; n = n.Parent() {
		step := fmt.Sprint(n.Index())
		if n.Kind() == xmltree.KindAttribute {
			step = "@" + step
		}
		parts = append([]string{step}, parts...)
	}
	return "/" + strings.Join(parts, "/")
}

// refStep is one step of a random path, kept beside its text so that
// referenceQuery can evaluate it without the engine's parser.
type refStep struct {
	deep, attribute bool
	name            string
	position        int    // [n]; 0 when unset
	hasAttr, child  string // [@name], [name]
	attrValue       string // with hasAttr: [@name='value'] when non-empty
}

// randomPath draws a location path over the small alphabet
// renamedDocument uses, so that steps repeat and contexts nest.
func randomPath(rng *rand.Rand) (string, []refStep) {
	elems := []string{"a", "b", "c", "*"}
	var sb strings.Builder
	var steps []refStep
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		st := refStep{deep: rng.Intn(3) > 0}
		sb.WriteString(map[bool]string{false: "/", true: "//"}[st.deep])
		if i == n-1 && rng.Intn(5) == 0 {
			st.attribute, st.name = true, []string{"k", "id", "*"}[rng.Intn(3)]
			sb.WriteString("@" + st.name)
			steps = append(steps, st)
			break
		}
		st.name = elems[rng.Intn(len(elems))]
		sb.WriteString(st.name)
		switch rng.Intn(6) {
		case 0:
			st.position = 1 + rng.Intn(3)
			fmt.Fprintf(&sb, "[%d]", st.position)
		case 1:
			st.hasAttr = "k"
			sb.WriteString("[@k]")
		case 2:
			st.hasAttr, st.attrValue = "k", "v1"
			sb.WriteString("[@k='v1']")
		case 3:
			st.child = elems[rng.Intn(3)]
			fmt.Fprintf(&sb, "[%s]", st.child)
		}
		steps = append(steps, st)
	}
	return sb.String(), steps
}

// referenceQuery evaluates steps the slow, obvious way: every step
// tests every labelled node of the document against every context, a
// position is the rank among the same parent's candidates, and the
// result is made unique with a set and ordered by preorder rank.
func referenceQuery(doc *xmltree.Document, steps []refStep) []*xmltree.Node {
	all := doc.LabelledNodes()
	pre := doc.PreRank()
	current := map[*xmltree.Node]bool{doc.Node(): true}
	for _, st := range steps {
		next := map[*xmltree.Node]bool{}
		for ctx := range current {
			rank := map[*xmltree.Node]int{}
			for _, n := range all {
				if (n.Kind() == xmltree.KindAttribute) != st.attribute || (st.name != "*" && n.Name() != st.name) {
					continue
				}
				if !(n.Parent() == ctx || st.deep && ctx.IsAncestorOf(n)) {
					continue
				}
				rank[n.Parent()]++
				keep := st.position == 0 || rank[n.Parent()] == st.position
				if v, ok := n.Attr(st.hasAttr); st.hasAttr != "" && (!ok || st.attrValue != "" && v != st.attrValue) {
					keep = false
				}
				if st.child != "" {
					found := false
					for _, c := range n.Children() {
						found = found || c.Kind() == xmltree.KindElement && c.Name() == st.child
					}
					keep = keep && found
				}
				if keep {
					next[n] = true
				}
			}
		}
		current = next
	}
	out := make([]*xmltree.Node, 0, len(current))
	for n := range current {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return pre[out[i]] < pre[out[j]] })
	return out
}

// renamedDocument is a generated document whose elements are called a,
// b or c and whose attributes k or id (values v0..v2).
func renamedDocument(seed int64) *xmltree.Document {
	doc := xmltree.Generate(xmltree.GenOptions{Seed: seed, MaxDepth: 6, MaxChildren: 5, AttrProb: 0.5, TextProb: 0.5, TargetNodes: 400})
	rng := rand.New(rand.NewSource(seed))
	for _, n := range doc.LabelledNodes() {
		if n.Kind() == xmltree.KindAttribute {
			n.SetName([]string{"k", "id"}[rng.Intn(2)])
			n.SetValue(fmt.Sprintf("v%d", rng.Intn(3)))
		} else if n != doc.Root() {
			n.SetName([]string{"a", "b", "c"}[rng.Intn(3)])
		}
	}
	return doc
}

// sameResult checks a query's result on a version view against the
// live document's: the same nodes by address and serialisation, with
// parents, positions and document order that hold on the view itself.
func sameResult(t *testing.T, path string, view *xmltree.Document, live, got []*xmltree.Node) {
	t.Helper()
	if len(got) != len(live) {
		t.Fatalf("%s: %d nodes on the view, %d on the live document", path, len(got), len(live))
	}
	for i, n := range got {
		if address(n) != address(live[i]) || xmltree.OuterXML(n) != xmltree.OuterXML(live[i]) {
			t.Fatalf("%s: result %d is %s on the view, %s on the live document", path, i, address(n), address(live[i]))
		}
		if n.Root() != view.Node() || !n.Frozen() {
			t.Fatalf("%s: result %d is not a frozen node of the view", path, i)
		}
		list := n.Parent().Children()
		if n.Kind() == xmltree.KindAttribute {
			list = n.Parent().Attributes()
		}
		if list[n.Index()] != n {
			t.Fatalf("%s: result %d is not the child its parent lists at Index()", path, i)
		}
		if i > 0 && xmltree.DocOrderCompare(got[i-1], n) != -1 {
			t.Fatalf("%s: results %d and %d are not in document order", path, i-1, i)
		}
	}
}

// TestQueryOnVersionViewMatchesLive is the view ≡ live differential:
// the sample-book table and seeded random paths give, on a published
// version, the nodes they give on the live document, and give the very
// same nodes again on a second query and through a second engine. The
// random paths are also held against referenceQuery on the live side.
func TestQueryOnVersionViewMatchesLive(t *testing.T) {
	check := func(live *xmltree.Document, paths []string, steps [][]refStep) {
		view := xmltree.OpenVersion(live.PublishVersion(1))
		onLive := xpath.New(live, nil, xpath.ModeStructural)
		onView := xpath.New(view, nil, xpath.ModeStructural)
		for i, path := range paths {
			want, err := onLive.Query(path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if steps != nil {
				ref := referenceQuery(live, steps[i])
				if len(ref) != len(want) {
					t.Fatalf("%s: %d nodes, the reference evaluation gives %d", path, len(want), len(ref))
				}
				for j := range ref {
					if ref[j] != want[j] {
						t.Fatalf("%s: result %d is %s, the reference evaluation gives %s", path, j, address(want[j]), address(ref[j]))
					}
				}
			}
			got, err := onView.Query(path)
			if err != nil {
				t.Fatalf("%s on the view: %v", path, err)
			}
			sameResult(t, path, view, want, got)
			again, _ := xpath.New(view, nil, xpath.ModeStructural).Query(path)
			for i := range got {
				if again[i] != got[i] {
					t.Fatalf("%s: result %d changed identity between two queries of one version", path, i)
				}
			}
		}
		// Structural descendant axes take the same scan.
		for i, n := range view.LabelledNodes() {
			if i%7 != 0 {
				continue
			}
			got, err := onView.Select(n, xpath.AxisDescendantOrSelf, "")
			if err != nil {
				t.Fatal(err)
			}
			var want []*xmltree.Node
			view.WalkLabelled(func(m *xmltree.Node) bool {
				if m == n || n.IsAncestorOf(m) {
					want = append(want, m)
				}
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("descendant-or-self of %s: %d nodes, want %d", address(n), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("descendant-or-self of %s: node %d differs from the walk's", address(n), i)
				}
			}
		}
	}

	var table []string
	for _, c := range sampleBookQueries {
		table = append(table, c.path)
	}
	check(xmltree.SampleBook(), table, nil)

	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		paths, steps := make([]string, 60), make([][]refStep, 60)
		for i := range paths {
			paths[i], steps[i] = randomPath(rng)
		}
		check(renamedDocument(seed), paths, steps)
	}
}
