package xmltree

import "testing"

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
