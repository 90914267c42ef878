package xmltree

import (
	"fmt"
	"math/rand"
	"strconv"
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
	g.cut()
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
			if err := it.n.AppendAttr(g.named(NewAttribute("", ""), 'a', 'v')); err == nil {
				g.count++
				g.next++
			}
		}
		if it.depth >= g.opt.MaxDepth {
			continue
		}
		n := 1 + g.rng.Intn(g.opt.MaxChildren)
		for i := 0; i < n && g.budgetLeft(); i++ {
			c := g.named(NewElement(""), 'e', 0)
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
	text  []byte // every name and value, in the order of marks
	marks []mark
}

// mark is a generated node and where its name and value end in text.
type mark struct {
	n           *Node
	name, value int
}

// named records n, numbered g.next, for cut: its name is the name
// prefix and the number, its value the value prefix and the number, and
// a zero prefix leaves either empty.
func (g *generator) named(n *Node, name, value byte) *Node {
	g.number(name)
	m := mark{n: n, name: len(g.text)}
	g.number(value)
	m.value = len(g.text)
	g.marks = append(g.marks, m)
	return n
}

// number appends prefix and g.next to text, or nothing for a zero prefix.
func (g *generator) number(prefix byte) {
	if prefix != 0 {
		g.text = strconv.AppendInt(append(g.text, prefix), int64(g.next), 10)
	}
}

// cut gives every generated node its name and value as windows of one
// string, as a decoded document's are. A name allocated on its own can
// hold a 16-byte block, about three times its bytes, for as long as any
// version keeps its node.
func (g *generator) cut() {
	s, at := string(g.text), 0
	for _, m := range g.marks {
		m.n.name, m.n.value = s[at:m.name], s[m.name:m.value]
		at = m.value
	}
}

func (g *generator) budgetLeft() bool {
	return g.opt.TargetNodes <= 0 || g.count < g.opt.TargetNodes
}

func (g *generator) fill(e *Node, depth int) {
	if g.rng.Float64() < g.opt.AttrProb && g.budgetLeft() {
		if err := e.AppendAttr(g.named(NewAttribute("", ""), 'a', 'v')); err == nil {
			g.count++
			g.next++
		}
	}
	if depth >= g.opt.MaxDepth || !g.budgetLeft() {
		if g.rng.Float64() < g.opt.TextProb {
			_ = e.AppendChild(g.named(NewText(""), 0, 't'))
			g.next++
		}
		return
	}
	n := g.rng.Intn(g.opt.MaxChildren + 1)
	for i := 0; i < n && g.budgetLeft(); i++ {
		c := g.named(NewElement(""), 'e', 0)
		g.next++
		if err := e.AppendChild(c); err != nil {
			return
		}
		g.count++
		g.fill(c, depth+1)
	}
	if n == 0 && g.rng.Float64() < g.opt.TextProb {
		_ = e.AppendChild(g.named(NewText(""), 0, 't'))
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
