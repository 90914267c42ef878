package xmltree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFigure1PrePostRanks verifies that our traversal reproduces the
// paper's Figure 1(b)/Figure 2 pre/post ranks for the sample document
// exactly.
func TestFigure1PrePostRanks(t *testing.T) {
	doc := SampleBook()
	pre := doc.PreRank()
	post := doc.PostRank()

	type want struct {
		name      string
		pre, post int
	}
	wants := []want{
		{"book", 0, 9},
		{"title", 1, 1},
		{"genre", 2, 0},
		{"author", 3, 2},
		{"publisher", 4, 8},
		{"editor", 5, 5},
		{"name", 6, 3},
		{"address", 7, 4},
		{"edition", 8, 7},
		{"year", 9, 6},
	}
	byName := map[string]*Node{}
	doc.WalkLabelled(func(n *Node) bool { byName[n.Name()] = n; return true })
	for _, w := range wants {
		n := byName[w.name]
		if n == nil {
			t.Fatalf("node %q missing", w.name)
		}
		if pre[n] != w.pre || post[n] != w.post {
			t.Errorf("%s: got (%d,%d), want (%d,%d)", w.name, pre[n], post[n], w.pre, w.post)
		}
	}
}

func TestWalkLabelledOrderAndEarlyStop(t *testing.T) {
	doc := SampleBook()
	var names []string
	doc.WalkLabelled(func(n *Node) bool {
		names = append(names, n.Name())
		return len(names) < 3
	})
	if len(names) != 3 || names[0] != "book" || names[1] != "title" || names[2] != "genre" {
		t.Fatalf("early stop walk: %v", names)
	}
	all := doc.LabelledNodes()
	if len(all) != 10 {
		t.Fatalf("labelled nodes: %d", len(all))
	}
}

// labelledChildList collects LabelledChildren, checking its numbering and
// LabelledChildCount on the way.
func labelledChildList(t *testing.T, n *Node) []*Node {
	t.Helper()
	var list []*Node
	for i, c := range LabelledChildren(n) {
		if i != len(list) {
			t.Fatalf("labelled child %d numbered %d", len(list), i)
		}
		list = append(list, c)
	}
	if got := LabelledChildCount(n); got != len(list) {
		t.Fatalf("LabelledChildCount = %d, list has %d", got, len(list))
	}
	return list
}

func TestLabelledChildren(t *testing.T) {
	doc := SampleBook()
	title := doc.FindElement("title")
	kids := labelledChildList(t, title)
	if len(kids) != 1 || kids[0].Name() != "genre" {
		t.Fatalf("title labelled children: %v", kids)
	}
	book := doc.Root()
	kids = labelledChildList(t, book)
	if len(kids) != 3 {
		t.Fatalf("book labelled children: %d", len(kids))
	}
	edition := doc.FindElement("edition")
	kids = labelledChildList(t, edition)
	if len(kids) != 1 || kids[0].Name() != "year" {
		t.Fatalf("edition children: %v", kids)
	}
	if LabelledParent(book) != nil {
		t.Fatal("root has no labelled parent")
	}
	if LabelledParent(title) != book {
		t.Fatal("title parent")
	}
}

// TestDocOrderCompareMatchesPreorder checks the structural comparator
// against preorder ranks on random documents.
func TestDocOrderCompareMatchesPreorder(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		doc := Generate(GenOptions{Seed: seed, MaxDepth: 4, MaxChildren: 5, AttrProb: 0.4, TextProb: 0.3})
		nodes := doc.LabelledNodes()
		pre := doc.PreRank()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			got := DocOrderCompare(a, b)
			want := sign(pre[a] - pre[b])
			if got != want {
				t.Fatalf("seed %d: DocOrderCompare(%s,%s)=%d, want %d", seed, a.Name(), b.Name(), got, want)
			}
		}
	}
}

// TestLabelledNeighboursMatchWalk checks the allocation-free neighbour
// functions against the document-order walk on random documents (text
// leaves and attributes included), and that they allocate nothing.
func TestLabelledNeighboursMatchWalk(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		doc := Generate(GenOptions{Seed: seed, MaxDepth: 5, MaxChildren: 5, AttrProb: 0.5, TextProb: 0.6})
		// Text between element siblings, not only in leaves.
		for i, n := range doc.LabelledNodes() {
			if n.Kind() == KindElement && i%3 == 0 {
				if err := n.InsertChildAt(len(n.Children())/2, NewText("t")); err != nil {
					t.Fatal(err)
				}
			}
		}
		nodes := doc.LabelledNodes()
		at := func(i int) *Node {
			if i < 0 || i >= len(nodes) {
				return nil
			}
			return nodes[i]
		}
		for i, n := range nodes {
			if got := PrevLabelled(n); got != at(i-1) {
				t.Fatalf("seed %d: PrevLabelled(#%d %s) = %v, want %v", seed, i, n.Name(), got, at(i-1))
			}
			if got := NextLabelled(n); got != at(i+1) {
				t.Fatalf("seed %d: NextLabelled(#%d %s) = %v, want %v", seed, i, n.Name(), got, at(i+1))
			}
			j := i + 1
			for j < len(nodes) && n.IsAncestorOf(nodes[j]) {
				j++
			}
			if got := NextLabelledAfter(n); got != at(j) {
				t.Fatalf("seed %d: NextLabelledAfter(#%d %s) = %v, want %v", seed, i, n.Name(), got, at(j))
			}
		}
		mid := nodes[len(nodes)/2]
		if a := testing.AllocsPerRun(20, func() {
			PrevLabelled(mid)
			NextLabelled(mid)
			NextLabelledAfter(mid)
		}); a != 0 {
			t.Fatalf("neighbour functions allocate %.0f times", a)
		}
	}
	// A detached subtree is bounded by itself.
	sub := NewElement("sub")
	if _, err := sub.SetAttr("a", "1"); err != nil {
		t.Fatal(err)
	}
	if PrevLabelled(sub) != nil || NextLabelledAfter(sub) != nil || NextLabelled(sub) != sub.Attributes()[0] {
		t.Fatal("detached subtree: neighbours must stay inside it")
	}
}

func TestDocOrderAncestorPrecedesDescendant(t *testing.T) {
	doc := SampleBook()
	book := doc.Root()
	name := doc.FindElement("name")
	if DocOrderCompare(book, name) != -1 || DocOrderCompare(name, book) != 1 {
		t.Fatal("ancestor must precede descendant")
	}
	if DocOrderCompare(book, book) != 0 {
		t.Fatal("self comparison must be 0")
	}
}

func TestPostRankProperty(t *testing.T) {
	// Property: for any two labellable nodes, a is an ancestor of d iff
	// pre(a) < pre(d) and post(a) > post(d) (Dietz, paper §3.1.1).
	f := func(seed int64) bool {
		doc := Generate(GenOptions{Seed: seed % 1000, MaxDepth: 5, MaxChildren: 4, AttrProb: 0.3})
		pre := doc.PreRank()
		post := doc.PostRank()
		nodes := doc.LabelledNodes()
		for _, a := range nodes {
			for _, d := range nodes {
				if a == d {
					continue
				}
				dietz := pre[a] < pre[d] && post[a] > post[d]
				if dietz != a.IsAncestorOf(d) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// pathTo and docOrderByPaths are DocOrderCompare as it was defined
// before it stopped allocating: compare the root-to-node paths. Kept as
// the oracle of TestDocOrderCompareMatchesPathDefinition.
func pathTo(n *Node) []*Node {
	var rev []*Node
	for x := n; x != nil; x = x.parent {
		rev = append(rev, x)
	}
	out := make([]*Node, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func docOrderByPaths(a, b *Node) int {
	if a == b {
		return 0
	}
	pa, pb := pathTo(a), pathTo(b)
	i := 0
	for i < len(pa) && i < len(pb) && pa[i] == pb[i] {
		i++
	}
	switch {
	case i == len(pa):
		return -1
	case i == len(pb):
		return 1
	}
	ca, cb := pa[i], pb[i]
	if aAttr, bAttr := ca.kind == KindAttribute, cb.kind == KindAttribute; aAttr != bAttr {
		if aAttr {
			return -1
		}
		return 1
	}
	list := ca.parent.children()
	if ca.kind == KindAttribute {
		list = ca.parent.attributes()
	}
	for _, c := range list {
		if c == ca {
			return -1
		}
		if c == cb {
			return 1
		}
	}
	return 0
}

// allNodes lists every node of the document, text leaves and the
// document node included.
func allNodes(d *Document) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, a := range n.attributes() {
			walk(a)
		}
		for _, c := range n.children() {
			walk(c)
		}
	}
	walk(d.node)
	return out
}

// TestDocOrderCompareMatchesPathDefinition is the seeded differential
// of the lockstep climb against the path definition, over every kind of
// node on live documents and on their version views, and the proof that
// a comparison allocates nothing.
func TestDocOrderCompareMatchesPathDefinition(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		live := Generate(GenOptions{Seed: seed, MaxDepth: 6, MaxChildren: 5, AttrProb: 0.5, TextProb: 0.6})
		for _, doc := range []*Document{live, OpenVersion(live.PublishVersion(1))} {
			nodes := allNodes(doc)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
				if got, want := DocOrderCompare(a, b), docOrderByPaths(a, b); got != want {
					t.Fatalf("seed %d: DocOrderCompare(%s,%s)=%d, path definition says %d", seed, a.Name(), b.Name(), got, want)
				}
			}
			deep, shallow := nodes[len(nodes)-1], nodes[len(nodes)/3]
			if a := testing.AllocsPerRun(20, func() {
				DocOrderCompare(deep, shallow)
				DocOrderCompare(shallow, deep)
			}); a != 0 {
				t.Fatalf("DocOrderCompare allocates %.0f times", a)
			}
		}
	}
}

// TestLabelledSiblingsMatchList checks the in-place sibling neighbours
// against the list they replace, on random documents with text between
// the element siblings.
func TestLabelledSiblingsMatchList(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		doc := Generate(GenOptions{Seed: seed, MaxDepth: 5, MaxChildren: 5, AttrProb: 0.5, TextProb: 0.6})
		for i, n := range doc.LabelledNodes() {
			if n.Kind() == KindElement && i%3 == 0 {
				if err := n.InsertChildAt(len(n.Children())/2, NewText("t")); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, n := range doc.LabelledNodes() {
			list := labelledChildList(t, n.Parent())
			var wantPrev, wantNext *Node
			for i, s := range list {
				if s != n {
					continue
				}
				if i > 0 {
					wantPrev = list[i-1]
				}
				if i+1 < len(list) {
					wantNext = list[i+1]
				}
			}
			prev, next, ok := LabelledSiblings(n)
			if !ok || prev != wantPrev || next != wantNext {
				t.Fatalf("seed %d: LabelledSiblings(%s) = %v, %v, %v; the list says %v, %v", seed, n.Name(), prev, next, ok, wantPrev, wantNext)
			}
		}
		mid := doc.LabelledNodes()[doc.LabelledCount()/2]
		if a := testing.AllocsPerRun(20, func() { LabelledSiblings(mid) }); a != 0 {
			t.Fatalf("LabelledSiblings allocates %.0f times", a)
		}
	}
	if _, _, ok := LabelledSiblings(NewElement("detached")); ok {
		t.Fatal("a detached node has no sibling list")
	}
	text := NewText("t")
	if err := SampleBook().Root().AppendChild(text); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := LabelledSiblings(text); ok {
		t.Fatal("a text node is in no labelled sibling list")
	}
}
