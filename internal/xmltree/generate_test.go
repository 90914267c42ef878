package xmltree

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	opt := GenOptions{Seed: 1, MaxDepth: 6, MaxChildren: 8, AttrProb: 0.3, TextProb: 0.5}
	a := Generate(opt)
	b := Generate(opt)
	if a.XML() != b.XML() {
		t.Fatal("generator not deterministic for equal options")
	}
	opt.Seed = 2
	c := Generate(opt)
	if c.XML() == a.XML() {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

func TestGenerateValidity(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		doc := Generate(GenOptions{Seed: seed, MaxDepth: 5, MaxChildren: 6, AttrProb: 0.5, TextProb: 0.5})
		if err := doc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if doc.Root() == nil {
			t.Fatalf("seed %d: no root", seed)
		}
	}
}

func TestGenerateTargetNodes(t *testing.T) {
	doc := Generate(GenOptions{Seed: 7, MaxDepth: 30, MaxChildren: 10, AttrProb: 0.2, TargetNodes: 500})
	n := doc.LabelledCount()
	if n < 400 || n > 600 {
		t.Fatalf("target nodes: got %d, want ~500", n)
	}
}

func TestGenerateWide(t *testing.T) {
	doc := GenerateWide(100)
	if got := len(doc.Root().Children()); got != 100 {
		t.Fatalf("wide children: %d", got)
	}
	if maxDepth(doc) != 1 {
		t.Fatalf("wide depth: %d", maxDepth(doc))
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeep(t *testing.T) {
	doc := GenerateDeep(50)
	if maxDepth(doc) != 49 {
		t.Fatalf("deep depth: %d", maxDepth(doc))
	}
	if doc.LabelledCount() != 50 {
		t.Fatalf("deep count: %d", doc.LabelledCount())
	}
}

func TestGenerateBalanced(t *testing.T) {
	doc := GenerateBalanced(3, 3)
	// 1 + 3 + 9 + 27 = 40 nodes
	if got := doc.LabelledCount(); got != 40 {
		t.Fatalf("balanced count: %d, want 40", got)
	}
	if maxDepth(doc) != 3 {
		t.Fatalf("balanced depth: %d", maxDepth(doc))
	}
}

func TestExampleTreeShape(t *testing.T) {
	doc := ExampleTree()
	if doc.LabelledCount() != 10 {
		t.Fatalf("example tree nodes: %d", doc.LabelledCount())
	}
	r := doc.Root()
	if len(r.Children()) != 3 {
		t.Fatalf("root children: %d", len(r.Children()))
	}
	want := []int{2, 1, 3}
	for i, c := range r.Children() {
		if len(c.Children()) != want[i] {
			t.Fatalf("child %d fanout: %d, want %d", i, len(c.Children()), want[i])
		}
	}
}

// maxDepth returns the maximum element/attribute depth of doc (root
// element depth 0), or -1 for an empty document.
func maxDepth(doc *Document) int {
	max := -1
	doc.WalkLabelled(func(n *Node) bool {
		if dd := n.Depth(); dd > max {
			max = dd
		}
		return true
	})
	return max
}

// baseOptions are workload.BaseDocument's options: the generated
// database every benchmark corpus and P-claim reads.
func baseOptions(seed int64, target int) GenOptions {
	return GenOptions{Seed: seed, MaxDepth: 12, MaxChildren: 8, AttrProb: 0.25, TextProb: 0.3, TargetNodes: target}
}

// TestGeneratedListsKeepTheirRoom: every list of a generated document
// has the room appending its entries one at a time gives it, the least
// power of two at or above its length (none when it is empty). A later
// insert into a list allocates or not by that room, so the generator
// may not trim it to the entries, nor over-reserve the last node it
// fills by leaving its attribute out of the node budget.
func TestGeneratedListsKeepTheirRoom(t *testing.T) {
	lists := 0
	var check func(n *Node) error
	check = func(n *Node) error {
		lists++
		want := 0
		if len(n.links) > 0 {
			want = 1 << bits.Len(uint(len(n.links)-1))
		}
		if cap(n.links) != want {
			return fmt.Errorf("a list of %d entries under %q has room for %d, want %d", len(n.links), n.name, cap(n.links), want)
		}
		for _, c := range n.links {
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, target := range []int{32, 33, 96, 97, 1000, 2000, 4999, 20000} {
			if err := check(Generate(baseOptions(seed, target)).node); err != nil {
				t.Fatalf("seed %d, target %d: %v", seed, target, err)
			}
		}
	}
	t.Logf("%d lists", lists)
}

// TestGeneratedSlabIsUsedUp: the generator decides a document's shape
// before it cuts the slab, so the slab holds exactly the document's
// nodes and the room of its lists, and no unused room stays reachable
// with them.
func TestGeneratedSlabIsUsedUp(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, target := range []int{32, 97, 2000, 20000} {
			g := &generator{opt: baseOptions(seed, target), rng: rand.New(rand.NewSource(seed)), count: 1}
			g.fillToTarget()
			if len(g.slab.nodes) != 0 || len(g.slab.links) != 0 {
				t.Fatalf("seed %d, target %d: %d nodes and %d list entries left in the slab", seed, target, len(g.slab.nodes), len(g.slab.links))
			}
		}
	}
}

// TestGenerateAllocatesPerDocument: a generated document is cut from
// one slab and its names from one string, as a decoded one is, so its
// allocations do not grow with its nodes: a 20 000-node document of
// the generated database, and each shape's, takes a handful.
func TestGenerateAllocatesPerDocument(t *testing.T) {
	for _, c := range []struct {
		what string
		max  float64
		gen  func() *Document
	}{
		{"Generate, 20 000 nodes", 12, func() *Document { return Generate(baseOptions(1, 20000)) }},
		{"GenerateWide(20000)", 5, func() *Document { return GenerateWide(20000) }},
		{"GenerateDeep(2000)", 5, func() *Document { return GenerateDeep(2000) }},
		{"GenerateBalanced(6, 5)", 5, func() *Document { return GenerateBalanced(6, 5) }},
	} {
		if got := testing.AllocsPerRun(5, func() { c.gen() }); got > c.max {
			t.Errorf("%s: %v allocations, want at most %v", c.what, got, c.max)
		}
	}
}

// BenchmarkGenerate builds one of read_heavy's 20 000-node documents.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Generate(baseOptions(1, 20000))
	}
}

// BenchmarkClone copies a 20 000-node generated document.
func BenchmarkClone(b *testing.B) {
	doc := Generate(baseOptions(1, 20000))
	b.ReportAllocs()
	for b.Loop() {
		doc.Clone()
	}
}
