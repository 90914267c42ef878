package xmltree

import (
	"math/bits"
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
	// TextProb is the probability that a leaf element carries text. It
	// applies only without a node target: a targeted tree has no text.
	TextProb float64
	// TargetNodes, when > 0, stops growth once roughly this many
	// labellable nodes exist.
	TargetNodes int
}

// Generate builds a random document according to opt. Generation is fully
// deterministic for a given options value. With a node target the
// document is built as a decoded one is: its nodes and lists are cut
// from one Slab, and its names and values from one string.
func Generate(opt GenOptions) *Document {
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = 1
	}
	if opt.MaxChildren <= 0 {
		opt.MaxChildren = 2
	}
	g := &generator{opt: opt, rng: rand.New(rand.NewSource(opt.Seed)), count: 1}
	var doc *Document
	if opt.TargetNodes > 0 {
		doc = g.fillToTarget()
	} else {
		doc = NewDocument()
		root := NewElement("root")
		_ = doc.SetRoot(root) // cannot fail: root is an element
		g.fill(root, 0)
	}
	g.cut()
	return doc
}

// fillToTarget grows the tree breadth-first until the node budget is
// spent, guaranteeing the target is reached whenever MaxDepth permits.
// It decides the whole shape first, each element's attribute and child
// count (the attribute counted against the budget), and then builds it
// from one slab, each list reserved once with the room appending would
// give it.
func (g *generator) fillToTarget() *Document {
	type item struct {
		n                  *Node
		depth, attrs, kids int32
	}
	// The nodes are allocated before the queue: in that order
	// read_heavy's nine set-ups, each from a collected heap, collect
	// 31–38 times, and 41–45 with the queue first. A MaxDepth that
	// stops growth short of the target leaves the rest of them unused.
	t := g.opt.TargetNodes
	nodes := make([]Node, t)
	queue := append(make([]item, 0, t), item{})
	links := 0
	for i := 0; i < len(queue) && g.budgetLeft(); i++ {
		it := item{depth: queue[i].depth}
		if g.rng.Float64() < g.opt.AttrProb {
			it.attrs = 1
			g.count++
		}
		if int(it.depth) < g.opt.MaxDepth {
			it.kids = int32(min(1+g.rng.Intn(g.opt.MaxChildren), t-g.count))
		}
		g.count += int(it.kids)
		links += room(int(it.attrs + it.kids))
		queue[i] = it
		for range it.kids {
			queue = append(queue, item{depth: it.depth + 1})
		}
	}
	// A node has at most a name and a value of 1+digits(t) bytes each.
	doc, slab := slabDocument(nodes[:g.count], links)
	g.slab, g.marks, g.text = slab, make([]mark, 0, g.count), make([]byte, 0, 2*g.count*(1+digits(t)))
	queue[0].n = g.slab.New(KindElement, "root", "")
	_ = doc.SetRoot(queue[0].n)
	// The appends cannot fail: each attaches a fresh attribute or
	// element to an element.
	next := 1
	for _, it := range queue {
		g.slab.Reserve(it.n, room(int(it.attrs+it.kids)))
		if it.attrs > 0 {
			_ = it.n.AppendAttr(g.named(KindAttribute, 'a', 'v'))
			g.next++
		}
		for range it.kids {
			queue[next].n = g.named(KindElement, 'e', 0)
			_ = it.n.AppendChild(queue[next].n)
			g.next++
			next++
		}
	}
	return doc
}

// room is the least power of two at or above k, 0 for none (k-1 wraps,
// and 1<<64 is 0): the room appending k entries one at a time gives a
// list of up to 64 (past 64, a malloc header makes append's room odd).
// Generated lists keep it, so an insert into one allocates as it did
// when they were appended to.
func room(k int) int { return 1 << bits.Len(uint(k-1)) }

// digits is the length of n >= 0 in decimal.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

type generator struct {
	opt   GenOptions
	rng   *rand.Rand
	count int
	next  int
	slab  Slab   // of the target's nodes; empty without a target
	text  []byte // every name and value, in the order of marks
	marks []mark
}

// mark is a generated node and where its name and value end in text.
type mark struct {
	n           *Node
	name, value int
}

// named returns a new node of kind, numbered g.next and recorded for
// cut: its name is the name prefix and the number, its value the value
// prefix and the number, and a zero prefix leaves either empty.
func (g *generator) named(kind Kind, name, value byte) *Node {
	n := g.slab.New(kind, "", "")
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
		if err := e.AppendAttr(g.named(KindAttribute, 'a', 'v')); err == nil {
			g.count++
			g.next++
		}
	}
	if depth >= g.opt.MaxDepth || !g.budgetLeft() {
		if g.rng.Float64() < g.opt.TextProb {
			_ = e.AppendChild(g.named(KindText, 0, 't'))
			g.next++
		}
		return
	}
	n := g.rng.Intn(g.opt.MaxChildren + 1)
	for i := 0; i < n && g.budgetLeft(); i++ {
		c := g.named(KindElement, 'e', 0)
		g.next++
		if err := e.AppendChild(c); err != nil {
			return
		}
		g.count++
		g.fill(c, depth+1)
	}
	if n == 0 && g.rng.Float64() < g.opt.TextProb {
		_ = e.AppendChild(g.named(KindText, 0, 't'))
		g.next++
	}
}

// GenerateWide builds a document whose root has exactly n element children
// and no deeper structure: the fan-out shape used by the sibling-insertion
// experiments (claims C2, C6 in docs/EXPERIMENTS.md).
func GenerateWide(n int) *Document {
	n = max(n, 0)
	return complete(1, n, 3+digits(n), func(b []byte, i int) []byte {
		if i == 0 {
			return append(b, "root"...)
		}
		return strconv.AppendInt(append(b, 'c'), int64(i-1), 10)
	})
}

// GenerateDeep builds a single chain of n nested elements: the depth shape
// used by level-encoding and prefix-growth probes.
func GenerateDeep(n int) *Document {
	return complete(n-1, 1, 1+digits(n), func(b []byte, i int) []byte {
		return strconv.AppendInt(append(b, 'd'), int64(i), 10)
	})
}

// GenerateBalanced builds a complete tree of the given depth and fan-out.
// depth 0 yields just the root.
func GenerateBalanced(depth, fanout int) *Document {
	fanout = max(fanout, 0)
	return complete(depth, fanout, 2+digits(depth)+digits(fanout), func(b []byte, i int) []byte {
		if i == 0 {
			return append(b, 'n')
		}
		// The i-th node is child (i-1)%fanout of its parent, on the
		// level its index falls in.
		d := 1
		for w := fanout; i > w; w *= fanout {
			i -= w
			d++
		}
		b = strconv.AppendInt(append(b, 'n'), int64(d), 10)
		return strconv.AppendInt(append(b, '_'), int64((i-1)%fanout), 10)
	})
}

// complete builds a complete tree of the given depth and fan-out from one
// slab, breadth-first: the parents are its first nodes, and each level's
// children follow. The i-th node is named what name appends to a buffer
// for i, at most width bytes, each name a window of one string.
func complete(depth, fanout, width int, name func(b []byte, i int) []byte) *Document {
	count, leaves := 1, 1
	for range depth {
		leaves *= fanout
		count += leaves
	}
	doc, slab := slabDocument(make([]Node, count), (count-leaves)*room(fanout))
	nodes := slab.nodes
	// The root and every child are fresh elements: no attachment fails.
	_ = doc.SetRoot(slab.New(KindElement, "", ""))
	for p := range count - leaves {
		slab.Reserve(&nodes[p], room(fanout))
		for range fanout {
			_ = nodes[p].AppendChild(slab.New(KindElement, "", ""))
		}
	}
	text := make([]byte, 0, count*width)
	for i := range nodes {
		text = name(text, i)
	}
	s, at := string(text), 0
	for i := range nodes {
		end := at + len(name(text[:0], i))
		nodes[i].name, at = s[at:end], end
	}
	return doc
}

// slabDocument returns an empty document and a slab of nodes whose
// lists hold links entries, the document's list (its root) already cut.
func slabDocument(nodes []Node, links int) (*Document, Slab) {
	doc, slab := NewDocument(), Slab{nodes: nodes, links: make([]*Node, links+1)}
	slab.Reserve(doc.node, 1)
	return doc, slab
}
