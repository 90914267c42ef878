package xmltree

import (
	"fmt"
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
	for i := range kids {
		s1, s2 := r1.Children()[i], r2.Children()[i]
		if i == 3 {
			if s1 == s2 {
				t.Fatal("changed child was shared between versions")
			}
			if s2.BirthSeq() != 2 {
				t.Fatalf("changed child birth seq = %d, want 2", s2.BirthSeq())
			}
			continue
		}
		if s1 != s2 {
			t.Fatalf("untouched child %d was recopied", i)
		}
		if s1.BirthSeq() != 1 {
			t.Fatalf("untouched child %d birth seq = %d, want 1", i, s1.BirthSeq())
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
	if !view.Frozen() {
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
	g1 := moved.shadow
	if g1 == nil {
		t.Fatal("published subtree has no shadow")
	}

	// Move under b: the subtree content is untouched, so its persistent
	// form must be shared.
	if err := b.AppendChild(moved); err != nil {
		t.Fatal(err)
	}
	v2 := doc.PublishVersion(2)
	if moved.shadow != g1 {
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
	doc := Generate(DefaultGenOptions())
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
	for _, c := range n.kids {
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
	_ = view.Node().DeepText()
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
		if n.src == nil || n.Root() != view.Node() {
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
// kind of context, the scan is the labelled walk minus the context.
func TestDescendantsMatchesWalk(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		live := Generate(GenOptions{Seed: seed, MaxDepth: 5, MaxChildren: 5, AttrProb: 0.5, TextProb: 0.6})
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
					t.Fatalf("seed %d, ctx %s: scan found %d nodes, walk %d", seed, ctx.Name(), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d, ctx %s: result %d differs from the walk's", seed, ctx.Name(), i)
					}
				}
			}
		}
	}
}
