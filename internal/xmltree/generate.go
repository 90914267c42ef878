package xmltree

import (
	"fmt"
	"math/rand"
)

// GenOptions parameterises the synthetic document generator. The paper is
// a survey and ships no datasets; the generator provides the "very large
// documents" and structured trees its scenarios describe (a substitution
// docs/EXPERIMENTS.md records).
type GenOptions struct {
	Seed        int64
	MaxDepth    int     // maximum element nesting depth below the root
	MaxChildren int     // maximum element children per element
	AttrProb    float64 // probability that an element carries an attribute
	TextProb    float64 // probability that a leaf element carries text
	// TargetNodes, when > 0, stops growth once roughly this many
	// labellable nodes exist.
	TargetNodes int
}

// DefaultGenOptions returns a mid-sized bushy document profile.
func DefaultGenOptions() GenOptions {
	return GenOptions{Seed: 1, MaxDepth: 6, MaxChildren: 8, AttrProb: 0.3, TextProb: 0.5}
}

// Generate builds a random document according to opt. Generation is fully
// deterministic for a given options value.
func Generate(opt GenOptions) *Document {
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = 1
	}
	if opt.MaxChildren <= 0 {
		opt.MaxChildren = 2
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	g := &generator{opt: opt, rng: rng}
	doc := NewDocument()
	root := NewElement("root")
	if err := doc.SetRoot(root); err != nil {
		panic(err) // cannot happen: root is an element
	}
	g.count = 1
	if opt.TargetNodes > 0 {
		g.fillToTarget(root)
	} else {
		g.fill(root, 0)
	}
	return doc
}

// fillToTarget grows the tree breadth-first until the node budget is
// spent, guaranteeing the target is reached whenever MaxDepth permits.
func (g *generator) fillToTarget(root *Node) {
	type item struct {
		n     *Node
		depth int
	}
	queue := []item{{root, 0}}
	for len(queue) > 0 && g.budgetLeft() {
		it := queue[0]
		queue = queue[1:]
		if g.rng.Float64() < g.opt.AttrProb && g.budgetLeft() {
			if _, err := it.n.SetAttr(fmt.Sprintf("a%d", g.next), fmt.Sprintf("v%d", g.next)); err == nil {
				g.count++
				g.next++
			}
		}
		if it.depth >= g.opt.MaxDepth {
			continue
		}
		n := 1 + g.rng.Intn(g.opt.MaxChildren)
		for i := 0; i < n && g.budgetLeft(); i++ {
			c := NewElement(fmt.Sprintf("e%d", g.next))
			g.next++
			if err := it.n.AppendChild(c); err != nil {
				return
			}
			g.count++
			queue = append(queue, item{c, it.depth + 1})
		}
	}
}

type generator struct {
	opt   GenOptions
	rng   *rand.Rand
	count int
	next  int
}

func (g *generator) budgetLeft() bool {
	return g.opt.TargetNodes <= 0 || g.count < g.opt.TargetNodes
}

func (g *generator) fill(e *Node, depth int) {
	if g.rng.Float64() < g.opt.AttrProb && g.budgetLeft() {
		if _, err := e.SetAttr(fmt.Sprintf("a%d", g.next), fmt.Sprintf("v%d", g.next)); err == nil {
			g.count++
			g.next++
		}
	}
	if depth >= g.opt.MaxDepth || !g.budgetLeft() {
		if g.rng.Float64() < g.opt.TextProb {
			_ = e.AppendChild(NewText(fmt.Sprintf("t%d", g.next)))
			g.next++
		}
		return
	}
	n := g.rng.Intn(g.opt.MaxChildren + 1)
	for i := 0; i < n && g.budgetLeft(); i++ {
		c := NewElement(fmt.Sprintf("e%d", g.next))
		g.next++
		if err := e.AppendChild(c); err != nil {
			return
		}
		g.count++
		g.fill(c, depth+1)
	}
	if n == 0 && g.rng.Float64() < g.opt.TextProb {
		_ = e.AppendChild(NewText(fmt.Sprintf("t%d", g.next)))
		g.next++
	}
}

// GenerateWide builds a document whose root has exactly n element children
// and no deeper structure: the fan-out shape used by the sibling-insertion
// experiments (claims C2, C6 in docs/EXPERIMENTS.md).
func GenerateWide(n int) *Document {
	doc := NewDocument()
	root := NewElement("root")
	_ = doc.SetRoot(root)
	for i := 0; i < n; i++ {
		_ = root.AppendChild(NewElement(fmt.Sprintf("c%d", i)))
	}
	return doc
}

// GenerateDeep builds a single chain of n nested elements: the depth shape
// used by level-encoding and prefix-growth probes.
func GenerateDeep(n int) *Document {
	doc := NewDocument()
	root := NewElement("d0")
	_ = doc.SetRoot(root)
	cur := root
	for i := 1; i < n; i++ {
		c := NewElement(fmt.Sprintf("d%d", i))
		_ = cur.AppendChild(c)
		cur = c
	}
	return doc
}

// GenerateBalanced builds a complete tree of the given depth and fan-out.
// depth 0 yields just the root.
func GenerateBalanced(depth, fanout int) *Document {
	doc := NewDocument()
	root := NewElement("n")
	_ = doc.SetRoot(root)
	var grow func(e *Node, d int)
	grow = func(e *Node, d int) {
		if d >= depth {
			return
		}
		for i := 0; i < fanout; i++ {
			c := NewElement(fmt.Sprintf("n%d_%d", d+1, i))
			_ = e.AppendChild(c)
			grow(c, d+1)
		}
	}
	grow(root, 0)
	return doc
}
