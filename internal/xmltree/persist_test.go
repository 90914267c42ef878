package xmltree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestPublishVersionSharesUntouchedSubtrees: after a single-spine
// mutation, republishing copies only the spine and shares every other
// subtree with the previous version by pointer.
func TestPublishVersionSharesUntouchedSubtrees(t *testing.T) {
	doc := NewDocument()
	root := NewElement("root")
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	var kids []*Node
	for i := 0; i < 8; i++ {
		k := NewElement(fmt.Sprintf("k%d", i))
		if _, err := k.SetAttr("i", fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
		if err := root.AppendChild(k); err != nil {
			t.Fatal(err)
		}
		kids = append(kids, k)
	}
	v1 := doc.PublishVersion(1)

	// Touch one child: only that child and the spine above it may be
	// recopied.
	kids[3].SetName("renamed")
	v2 := doc.PublishVersion(2)

	if v1 == v2 {
		t.Fatal("publish after a change returned the same version root")
	}
	r1 := v1.Children()[0]
	r2 := v2.Children()[0]
	if r1 == r2 {
		t.Fatal("spine (root element) was shared despite a change below it")
	}
	// The views of the two versions are distinct shells; what they
	// mirror is shared exactly where nothing changed.
	w1, w2 := OpenVersion(v1).Root(), OpenVersion(v2).Root()
	for i := range kids {
		s1, s2 := r1.Children()[i], r2.Children()[i]
		x1, x2 := w1.Children()[i], w2.Children()[i]
		if x1 == x2 || x1.Source() != s1 || x2.Source() != s2 {
			t.Fatalf("child %d: the views do not mirror their versions", i)
		}
		if i == 3 {
			if s1 == s2 {
				t.Fatal("changed child was shared between versions")
			}
			continue
		}
		if s1 != s2 {
			t.Fatalf("untouched child %d was recopied", i)
		}
	}
}

// TestPublishUnchangedReturnsSameRoot: republishing an unchanged
// document is an allocation-free pointer return.
func TestPublishUnchangedReturnsSameRoot(t *testing.T) {
	doc := SampleBook()
	v1 := doc.PublishVersion(1)
	if got := doc.PublishVersion(2); got != v1 {
		t.Fatal("unchanged republish returned a new root")
	}
	allocs := testing.AllocsPerRun(100, func() {
		doc.PublishVersion(3)
	})
	if allocs != 0 {
		t.Fatalf("unchanged republish allocates: %v allocs", allocs)
	}
}

// TestVersionViewNavigation: a version view serialises identically to
// the live document it was published from, has consistent parent
// pointers, document order and sibling navigation, and refuses
// mutation.
func TestVersionViewNavigation(t *testing.T) {
	doc := SampleBook()
	want := doc.XML()
	view := OpenVersion(doc.PublishVersion(1))

	if got := view.XML(); got != want {
		t.Fatalf("view serialisation differs:\n got %s\nwant %s", got, want)
	}
	if !view.node.Frozen() {
		t.Fatal("version view is not frozen")
	}
	if err := view.Validate(); err != nil {
		t.Fatal(err)
	}

	// Parent pointers are materialised correctly on every axis walk.
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, a := range n.Attributes() {
			if a.Parent() != n {
				t.Fatalf("attribute %q has wrong parent", a.Name())
			}
		}
		for _, c := range n.Children() {
			if c.Parent() != n {
				t.Fatalf("child %q has wrong parent", c.Name())
			}
			walk(c)
		}
	}
	walk(view.Node())

	// Document order over the view matches preorder ranks.
	nodes := view.LabelledNodes()
	for i := 1; i < len(nodes); i++ {
		if DocOrderCompare(nodes[i-1], nodes[i]) >= 0 {
			t.Fatalf("doc order violated at %d (%s >= %s)", i, nodes[i-1].Name(), nodes[i].Name())
		}
	}

	// Sibling/index navigation agrees with the child lists.
	r := view.Root()
	for i, c := range r.Children() {
		if c.Index() != i {
			t.Fatalf("child %d reports index %d", i, c.Index())
		}
		if i > 0 && c.PrevSibling() != r.Children()[i-1] {
			t.Fatalf("child %d PrevSibling mismatch", i)
		}
	}

	// Mutation is refused with the frozen contract.
	if _, err := r.SetAttr("x", "y"); err != ErrFrozen {
		t.Fatalf("SetAttr on view: %v, want ErrFrozen", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetValue on view did not panic")
			}
		}()
		r.SetValue("boom")
	}()
}

// TestVersionViewStableIdentity: repeated traversals of one view
// resolve to the same *Node identities (lazily materialised shells are
// cached, not rebuilt).
func TestVersionViewStableIdentity(t *testing.T) {
	doc := SampleBook()
	view := OpenVersion(doc.PublishVersion(1))
	first := view.LabelledNodes()
	second := view.LabelledNodes()
	if len(first) != len(second) || len(first) == 0 {
		t.Fatalf("traversal sizes differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("node %d identity changed between traversals", i)
		}
	}
}

// TestVersionIsolation: heavy live mutation after publication leaves
// the published version byte-identical.
func TestVersionIsolation(t *testing.T) {
	doc := SampleBook()
	want := doc.XML()
	view := OpenVersion(doc.PublishVersion(1))

	root := doc.Root()
	root.SetName("rewritten")
	if _, err := root.SetAttr("epoch", "2"); err != nil {
		t.Fatal(err)
	}
	kids := root.Children()
	if len(kids) < 2 {
		t.Fatal("sample too small")
	}
	kids[0].Detach()
	if err := root.AppendChild(NewElement("tail")); err != nil {
		t.Fatal(err)
	}
	doc.PublishVersion(2)

	if got := view.XML(); got != want {
		t.Fatalf("published version changed under live mutation:\n got %s\nwant %s", got, want)
	}
	if doc.XML() == want {
		t.Fatal("live document did not advance")
	}
}

// TestDetachRegraftSharesSubtree: moving a published subtree shares its
// persistent form with the previous version instead of recopying it.
func TestDetachRegraftSharesSubtree(t *testing.T) {
	doc := NewDocument()
	root := NewElement("root")
	if err := doc.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	a, b := NewElement("a"), NewElement("b")
	moved := NewElement("moved")
	if err := moved.AppendChild(NewText("payload")); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{a, b} {
		if err := root.AppendChild(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AppendChild(moved); err != nil {
		t.Fatal(err)
	}
	doc.PublishVersion(1)
	g1 := moved.mirror
	if g1 == nil {
		t.Fatal("published subtree has no shadow")
	}

	// Move under b: the subtree content is untouched, so its persistent
	// form must be shared.
	if err := b.AppendChild(moved); err != nil {
		t.Fatal(err)
	}
	v2 := doc.PublishVersion(2)
	if moved.mirror != g1 {
		t.Fatal("moved subtree was recopied on publish")
	}
	g2 := v2.Children()[0].Children()[1].Children()[0]
	if g2 != g1 {
		t.Fatal("version 2 does not share the moved subtree with version 1")
	}
}

// TestPublishAllocsSpineBounded: republication cost scales with the
// changed spine, not with document size — a one-leaf change in a wide
// document allocates a handful of nodes; in a deep chain it allocates
// proportional to depth.
func TestPublishAllocsSpineBounded(t *testing.T) {
	wide := GenerateWide(1000)
	leaf := wide.Root().Children()[500]
	seq := uint64(1)
	wide.PublishVersion(seq)
	wideAllocs := testing.AllocsPerRun(50, func() {
		seq++
		leaf.SetName("w")
		wide.PublishVersion(seq)
	})
	// Spine: document node, root element, leaf + their child slices.
	if wideAllocs > 10 {
		t.Fatalf("wide-doc spine publish allocates %v, want <= 10", wideAllocs)
	}

	const depth = 64
	deep := GenerateDeep(depth)
	tip := deep.Root()
	for tip.FirstChild() != nil && tip.FirstChild().Kind() == KindElement {
		tip = tip.FirstChild()
	}
	seq = 1
	deep.PublishVersion(seq)
	deepAllocs := testing.AllocsPerRun(50, func() {
		seq++
		tip.SetName("d")
		deep.PublishVersion(seq)
	})
	if deepAllocs < depth || deepAllocs > 4*depth {
		t.Fatalf("deep-chain spine publish allocates %v, want O(depth=%d)", deepAllocs, depth)
	}
	if wideAllocs*4 > deepAllocs {
		t.Fatalf("wide (%v) vs deep (%v) allocs do not show spine scaling", wideAllocs, deepAllocs)
	}
}

// TestSameParentReinsert: moving a node to a new position under its
// own parent adjusts for the implicit detach instead of running the
// splice past the child list (regression: AppendChild of an existing
// last-but-one child used to panic).
func TestSameParentReinsert(t *testing.T) {
	root := NewElement("root")
	var kids [3]*Node
	for i := range kids {
		kids[i] = NewElement(fmt.Sprintf("k%d", i))
		if err := root.AppendChild(kids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Move the first child to the end.
	if err := root.AppendChild(kids[0]); err != nil {
		t.Fatal(err)
	}
	want := []*Node{kids[1], kids[2], kids[0]}
	for i, k := range root.Children() {
		if k != want[i] {
			t.Fatalf("child %d = %s after same-parent append", i, k.Name())
		}
	}
	// And back to the front.
	if err := root.PrependChild(kids[0]); err != nil {
		t.Fatal(err)
	}
	if root.Children()[0] != kids[0] || len(root.Children()) != 3 {
		t.Fatal("same-parent prepend misplaced the child")
	}

	// Attribute counterpart: move the first attribute to the end slot.
	e := NewElement("e")
	var as [3]*Node
	for i := range as {
		as[i] = NewAttribute(fmt.Sprintf("a%d", i), "v")
		if err := e.AppendAttr(as[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.InsertAttrAt(3, as[0]); err != nil {
		t.Fatal(err)
	}
	wantA := []*Node{as[1], as[2], as[0]}
	for i, a := range e.Attributes() {
		if a != wantA[i] {
			t.Fatalf("attr %d = %s after same-parent reinsert", i, a.Name())
		}
	}
}

// TestConcurrentViewExpansion: many goroutines materialising and
// reading the same version view concurrently agree on content (run
// with -race to exercise the expansion synchronisation).
func TestConcurrentViewExpansion(t *testing.T) {
	doc := Generate(GenOptions{Seed: 1, MaxDepth: 6, MaxChildren: 8, AttrProb: 0.3, TextProb: 0.5})
	want := doc.XML()
	view := OpenVersion(doc.PublishVersion(1))

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := view.XML(); got != want {
				errs <- fmt.Errorf("concurrent reader saw different serialisation")
				return
			}
			n := 0
			view.WalkLabelled(func(*Node) bool { n++; return true })
			if n != view.LabelledCount() {
				errs <- fmt.Errorf("concurrent walk count mismatch")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// expandedNodes lists the view nodes under n whose child shells exist,
// reading the cached lists directly so the count itself expands nothing.
func expandedNodes(n *Node) []*Node {
	if n.expanded == 0 {
		return nil
	}
	out := []*Node{n}
	for _, c := range n.links {
		out = append(out, expandedNodes(c)...)
	}
	return out
}

// TestDescendantsMaterialisesOnlyMatchPaths: the scan of a version view
// expands the ancestors of its matches and nothing else, returns the
// nodes the materialising walk returns (same identity, real parents),
// and the readers that hand out no node expand nothing at all.
func TestDescendantsMaterialisesOnlyMatchPaths(t *testing.T) {
	live := Generate(GenOptions{Seed: 7, MaxDepth: 7, MaxChildren: 6, AttrProb: 0.4, TextProb: 0.5, TargetNodes: 3000})
	var rare []*Node
	for i, n := range live.LabelledNodes() {
		if n.Kind() == KindElement && i%500 == 250 {
			n.SetName("rare")
			rare = append(rare, n)
		}
	}
	version := live.PublishVersion(1)
	isRare := func(n *Node) bool { return n.Kind() == KindElement && n.Name() == "rare" }

	view := OpenVersion(version)
	if got := view.XML(); got != live.XML() {
		t.Fatal("view serialises differently from the live document")
	}
	_ = view.Node().Clone()
	_ = view.NodeCount() + view.LabelledCount()
	if n := len(expandedNodes(view.Node())); n != 0 {
		t.Fatalf("readers that hand out no node expanded %d view nodes", n)
	}

	got := Descendants(view.Node(), isRare)
	if len(got) != len(rare) {
		t.Fatalf("scan found %d nodes, the live document has %d", len(got), len(rare))
	}
	onMatchPath := map[*Node]bool{}
	for i, n := range got {
		if !n.view || n.Root() != view.Node() {
			t.Fatalf("match %d is not a node of the view", i)
		}
		if OuterXML(n) != OuterXML(rare[i]) || n.Index() != rare[i].Index() || n.Depth() != rare[i].Depth() {
			t.Fatalf("match %d differs from its live counterpart", i)
		}
		for p := n.Parent(); p != nil; p = p.Parent() {
			onMatchPath[p] = true
		}
	}
	for _, n := range expandedNodes(view.Node()) {
		if !onMatchPath[n] {
			t.Fatalf("scan expanded <%s>, which is above no match", n.Name())
		}
	}

	// The same version, fully materialised by a walk, holds the same nodes.
	var walked []*Node
	view.WalkLabelled(func(n *Node) bool {
		if isRare(n) {
			walked = append(walked, n)
		}
		return true
	})
	again := Descendants(view.Node(), isRare)
	for i := range got {
		if got[i] != walked[i] || got[i] != again[i] {
			t.Fatalf("match %d: the scan and the walk disagree on node identity", i)
		}
	}
}

// TestDescendantsMatchesWalk: on live trees and on views, from every
// kind of context, the scan is the labelled walk minus the context —
// also on a chain 1 000 deep, far below what the scan keeps on the
// stack.
func TestDescendantsMatchesWalk(t *testing.T) {
	var lives []*Document
	for seed := int64(0); seed < 6; seed++ {
		lives = append(lives, Generate(GenOptions{Seed: seed, MaxDepth: 5, MaxChildren: 5, AttrProb: 0.5, TextProb: 0.6}))
	}
	// The chain's links from the 128th down live on the heap and move as
	// the scan goes deeper; the siblings after a deep descent catch a
	// scan that still writes to where a link used to be.
	chain := GenerateDeep(1000)
	for i, n := range chain.LabelledNodes() {
		if i%3 == 0 {
			if _, err := n.SetAttr([]string{"a", "ab"}[i%2], "v"); err != nil {
				t.Fatal(err)
			}
		}
		if i%100 == 50 {
			if err := n.AppendChild(NewElement("sb")); err != nil {
				t.Fatal(err)
			}
		}
	}
	lives = append(lives, chain)
	for li, live := range lives {
		for _, doc := range []*Document{live, OpenVersion(live.PublishVersion(1))} {
			for _, ctx := range allNodes(doc) {
				var want []*Node
				walkLabelled(ctx, func(n *Node) bool {
					if n != ctx && len(n.Name())%2 == 0 {
						want = append(want, n)
					}
					return true
				})
				got := Descendants(ctx, func(n *Node) bool { return len(n.Name())%2 == 0 })
				if len(got) != len(want) {
					t.Fatalf("doc %d, ctx %s: scan found %d nodes, walk %d", li, ctx.Name(), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("doc %d, ctx %s: result %d differs from the walk's", li, ctx.Name(), i)
					}
				}
			}
		}
	}
}

// firstPublications publishes a fresh copy of doc once per call, each
// copy made before any is published, and returns the mean allocations
// of one publication.
func firstPublications(doc *Document) float64 {
	const runs = 4
	copies := make([]*Document, runs+1) // AllocsPerRun warms up once
	for i := range copies {
		copies[i] = doc.Clone()
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		copies[next].PublishVersion(1)
		next++
	})
}

// TestFirstPublicationIsOneSlab: a document's first version is cut from
// one slab — its nodes and its lists, two allocations at any size — and
// a spine published after it still costs one allocation per node.
func TestFirstPublicationIsOneSlab(t *testing.T) {
	for _, size := range []int{200, 20000} {
		doc := Generate(GenOptions{Seed: 3, MaxDepth: 8, MaxChildren: 8, AttrProb: 0.3, TextProb: 0.5, TargetNodes: size})
		if allocs := firstPublications(doc); allocs > 2 {
			t.Errorf("first publication of %d nodes: %v allocs, want <= 2", size, allocs)
		}
	}

	// A pin before the first commit publishes at sequence 0, and so does
	// every publication after it: only the first call may take the slab.
	doc := GenerateDeep(64)
	view := OpenVersion(doc.PublishVersion(0))
	tip := doc.Root()
	for tip.FirstChild() != nil {
		tip = tip.FirstChild()
	}
	if allocs := testing.AllocsPerRun(4, func() {
		tip.SetName(tip.Name() + "'")
		doc.PublishVersion(0)
	}); allocs < 64 {
		t.Errorf("spine publication after a first one at sequence 0: %v allocs, want one per node (at least 64)", allocs)
	}
	if view.XML() == doc.XML() {
		t.Error("the first version saw a later change")
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPublicationRetentionBounded: what the published versions keep
// alive does not grow with commit history. A document of about 4 000
// nodes takes 100 000 publications of a sawtooth — batches of 1 to 16
// item inserts under random elements, or deletes of random items — and
// then the latest version alone keeps at most what a node-by-node copy
// of that state costs plus one copy of the first version: the first
// version's slab, which a still-shared first-version node keeps
// reachable. Spines cut from slabs fail here: every old slab lives on
// through its one still-shared node.
func TestPublicationRetentionBounded(t *testing.T) {
	publications := 100000
	if testing.Short() {
		publications = 10000
	}
	h0 := liveHeap()
	live := Generate(GenOptions{Seed: 5, MaxDepth: 7, MaxChildren: 6, AttrProb: 0.3, TextProb: 0.5, TargetNodes: 4000})
	var elems []*Node
	for _, n := range live.LabelledNodes() {
		if n.Kind() == KindElement {
			elems = append(elems, n)
		}
	}
	h1 := liveHeap()
	version := live.PublishVersion(1)
	first := liveHeap() - h1

	rng := rand.New(rand.NewSource(5))
	var items []*Node
	growing := true
	for seq := uint64(2); seq < uint64(publications)+2; seq++ {
		for k := 1 + rng.Intn(16); k > 0; k-- {
			if growing = growing && len(items) < 256 || len(items) == 0; growing {
				item := NewElement("item")
				if err := item.AppendChild(NewText("x")); err != nil {
					t.Fatal(err)
				}
				if err := elems[rng.Intn(len(elems))].AppendChild(item); err != nil {
					t.Fatal(err)
				}
				items = append(items, item)
				continue
			}
			i := rng.Intn(len(items))
			items[i].Detach()
			items[i] = items[len(items)-1]
			items = items[:len(items)-1]
		}
		version = live.PublishVersion(seq)
	}

	// The same state, published node by node: a fresh copy whose first
	// publication is marked done. From here on only the versions are
	// live, and then only the latest.
	twin := live.Clone()
	twin.published = true
	twinVersion := twin.PublishVersion(1)
	withTwin := liveHeap()
	runtime.KeepAlive(twinVersion)
	perNode := withTwin - liveHeap()
	kept := liveHeap() - h0
	runtime.KeepAlive(version)

	t.Logf("first version %d B, node-by-node copy %d B, kept after %d publications %d B", first, perNode, publications, kept)
	if bound := perNode + first + first/16; kept > bound {
		t.Errorf("after %d publications the latest version keeps %d B, want <= %d (node-by-node %d + first version %d, 1/16 slack)",
			publications, kept, bound, perNode, first)
	}
}
