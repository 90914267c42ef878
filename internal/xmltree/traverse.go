package xmltree

// Tree traversal (paper §3.1.1). Parsing an XML document in document order
// corresponds to a preorder traversal; postorder ranks are assigned after a
// node's children have been visited. Labellable nodes are elements and
// attributes, with an element's attributes visited before its non-attribute
// children — this ordering reproduces the pre/post ranks of the paper's
// Figures 1(b) and 2 exactly.

import "iter"

// WalkLabelled visits every labellable node (elements and attributes) of
// the document in document (preorder) order. The visit function returns
// false to stop the walk early.
func (d *Document) WalkLabelled(visit func(*Node) bool) {
	walkLabelled(d.node, visit)
}

func walkLabelled(n *Node, visit func(*Node) bool) bool {
	if n.kind == KindElement || n.kind == KindAttribute {
		if !visit(n) {
			return false
		}
	}
	for _, a := range n.attributes() {
		if !walkLabelled(a, visit) {
			return false
		}
	}
	for _, c := range n.children() {
		if !walkLabelled(c, visit) {
			return false
		}
	}
	return true
}

// LabelledNodes returns all labellable nodes in document order.
func (d *Document) LabelledNodes() []*Node {
	var out []*Node
	d.WalkLabelled(func(n *Node) bool { out = append(out, n); return true })
	return out
}

// LabelledChildren ranges over the labellable children of n in document
// order — attributes first, then element children — numbering them from
// 0. This is the sibling list over which prefix schemes assign positional
// identifiers, walked in place.
func LabelledChildren(n *Node) iter.Seq2[int, *Node] {
	return func(yield func(int, *Node) bool) {
		i := 0
		for _, list := range [2][]*Node{n.attributes(), n.children()} {
			for _, c := range list {
				if c.kind == KindElement || c.kind == KindAttribute {
					if !yield(i, c) {
						return
					}
					i++
				}
			}
		}
	}
}

// LabelledChildCount returns the length of that list.
func LabelledChildCount(n *Node) (count int) {
	for range LabelledChildren(n) {
		count++
	}
	return count
}

// LabelledSiblings returns n's neighbours in its parent's
// LabelledChildren list — nil where n is the first or the last — found in
// place, without building the list. ok is false when n is not in such a
// list: detached, or neither an element nor an attribute.
func LabelledSiblings(n *Node) (prev, next *Node, ok bool) {
	p := n.parent
	i := n.Index()
	if i < 0 || (n.kind != KindElement && n.kind != KindAttribute) {
		return nil, nil, false
	}
	attrs := p.attributes()
	if n.kind == KindAttribute {
		if i > 0 {
			prev = attrs[i-1]
		}
		if i+1 < len(attrs) {
			return prev, attrs[i+1], true
		}
		return prev, elementChildFrom(p, 0), true
	}
	kids := p.children()
	for j := i - 1; j >= 0 && prev == nil; j-- {
		if kids[j].kind == KindElement {
			prev = kids[j]
		}
	}
	if prev == nil && len(attrs) > 0 {
		prev = attrs[len(attrs)-1]
	}
	return prev, elementChildFrom(p, i+1), true
}

// LabelledParent returns the nearest labellable ancestor of n (its element
// parent), or nil for the root element.
func LabelledParent(n *Node) *Node {
	p := n.parent
	if p == nil || p.kind == KindDocument {
		return nil
	}
	return p
}

// Document-order neighbours of a labellable node, computed from the
// tree alone. Each step looks at one sibling list (the node's own, then
// an ancestor's) and allocates nothing, so a caller that needs the
// neighbours of k nodes pays O(k × depth × fan-out), never a walk of the
// document. n must be an element or an attribute; a detached n is
// bounded by its own subtree.

// PrevLabelled returns the labellable node immediately before n in
// document order, or nil when n is the first.
func PrevLabelled(n *Node) *Node {
	p := n.parent
	if p == nil {
		return nil
	}
	if n.kind == KindAttribute {
		if i := n.Index(); i > 0 {
			return p.attributes()[i-1]
		}
		return p
	}
	kids := p.children()
	for i := n.Index() - 1; i >= 0; i-- {
		if kids[i].kind == KindElement {
			return lastLabelled(kids[i])
		}
	}
	if attrs := p.attributes(); len(attrs) > 0 {
		return attrs[len(attrs)-1]
	}
	if p.kind == KindElement {
		return p
	}
	return nil
}

// lastLabelled returns the last labellable node of the subtree rooted
// at element e: the deepest last element's last attribute, or that
// element itself.
func lastLabelled(e *Node) *Node {
	for {
		last := lastElementChild(e)
		if last == nil {
			break
		}
		e = last
	}
	if attrs := e.attributes(); len(attrs) > 0 {
		return attrs[len(attrs)-1]
	}
	return e
}

func lastElementChild(e *Node) *Node {
	kids := e.children()
	for i := len(kids) - 1; i >= 0; i-- {
		if kids[i].kind == KindElement {
			return kids[i]
		}
	}
	return nil
}

// NextLabelled returns the labellable node immediately after n in
// document order — n's first attribute or element child when it has
// one — or nil when n is the last.
func NextLabelled(n *Node) *Node {
	if n.kind == KindAttribute {
		p := n.parent
		if p == nil {
			return nil
		}
		if attrs, i := p.attributes(), n.Index(); i+1 < len(attrs) {
			return attrs[i+1]
		}
		if c := elementChildFrom(p, 0); c != nil {
			return c
		}
		return NextLabelledAfter(p)
	}
	if attrs := n.attributes(); len(attrs) > 0 {
		return attrs[0]
	}
	if c := elementChildFrom(n, 0); c != nil {
		return c
	}
	return NextLabelledAfter(n)
}

// NextLabelledAfter returns the labellable node immediately after the
// whole subtree rooted at n in document order, or nil when the subtree
// ends the document.
func NextLabelledAfter(n *Node) *Node {
	if n.kind == KindAttribute {
		return NextLabelled(n)
	}
	for p := n.parent; p != nil; n, p = p, p.parent {
		if c := elementChildFrom(p, n.Index()+1); c != nil {
			return c
		}
	}
	return nil
}

// elementChildFrom returns p's first element child at index i or later.
func elementChildFrom(p *Node, i int) *Node {
	kids := p.children()
	for ; i < len(kids); i++ {
		if kids[i].kind == KindElement {
			return kids[i]
		}
	}
	return nil
}

// PreRank computes the preorder traversal rank of every labellable node,
// starting at 0 at the root element (Figure 1(b)).
func (d *Document) PreRank() map[*Node]int {
	ranks := make(map[*Node]int)
	i := 0
	d.WalkLabelled(func(n *Node) bool {
		ranks[n] = i
		i++
		return true
	})
	return ranks
}

// PostRank computes the postorder traversal rank of every labellable node:
// a node is ranked after all its labellable children (Figure 1(b)).
func (d *Document) PostRank() map[*Node]int {
	ranks := make(map[*Node]int)
	i := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, a := range n.attributes() {
			walk(a)
		}
		for _, c := range n.children() {
			walk(c)
		}
		if n.kind == KindElement || n.kind == KindAttribute {
			ranks[n] = i
			i++
		}
	}
	walk(d.node)
	return ranks
}

// DocOrderCompare returns -1, 0 or +1 according to the document order of
// two attached nodes, computed structurally (the ground truth that label
// comparisons are probed against). It allocates nothing: the deeper node
// climbs to the other's depth, then both climb in lockstep to the
// children of their common ancestor, whose positions decide.
func DocOrderCompare(a, b *Node) int {
	if a == b {
		return 0
	}
	ca, cb := a, b
	da, db := ancestorCount(a), ancestorCount(b)
	for ; da > db; da-- {
		ca = ca.parent
	}
	for ; db > da; db-- {
		cb = cb.parent
	}
	if ca == cb {
		// One is an ancestor of the other: ancestors precede descendants.
		if ca == a {
			return -1
		}
		return 1
	}
	for ca.parent != cb.parent {
		ca, cb = ca.parent, cb.parent
	}
	p := ca.parent
	if p == nil {
		return 0 // different trees: no order
	}
	// Attributes precede non-attribute children of the same parent.
	aAttr := ca.kind == KindAttribute
	bAttr := cb.kind == KindAttribute
	if aAttr != bAttr {
		if aAttr {
			return -1
		}
		return 1
	}
	list := p.children()
	if aAttr {
		list = p.attributes()
	}
	for _, c := range list {
		if c == ca {
			return -1
		}
		if c == cb {
			return 1
		}
	}
	return 0 // unreachable for a valid tree
}

func ancestorCount(n *Node) int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}
