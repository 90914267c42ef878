// Package xmltree is a golden-case miniature of the real xmltree
// mutation contract: exported mutators must gate on frozen state and
// invalidate persistent shadows with markChanged.
package xmltree

import "errors"

// ErrFrozen mirrors the real frozen-version sentinel.
var ErrFrozen = errors.New("node is frozen")

// Node mirrors the real node layout: content fields — one list,
// attributes first — plus persistence bookkeeping.
type Node struct {
	frozen bool
	view   bool
	nattrs uint32
	name   string
	value  string
	parent *Node
	links  []*Node
	mirror *Node
}

// mustThaw mirrors the real frozen gate.
func (n *Node) mustThaw() error {
	if n.frozen {
		return ErrFrozen
	}
	return nil
}

// markChanged mirrors the real shadow invalidation.
func (n *Node) markChanged() { n.mirror = nil }

// Frozen reports the freeze state; read-only methods are exempt.
func (n *Node) Frozen() bool { return n.frozen }

// GoodSetName follows the full contract: gate, write, invalidate.
func (n *Node) GoodSetName(name string) error {
	if err := n.mustThaw(); err != nil {
		return err
	}
	n.name = name
	n.markChanged()
	return nil
}

// GoodSetValueInline gates with an explicit frozen check instead of
// mustThaw.
func (n *Node) GoodSetValueInline(v string) error {
	if n.frozen {
		return ErrFrozen
	}
	n.value = v
	n.markChanged()
	return nil
}

// BadSetValue misses both the gate and the invalidation.
func (n *Node) BadSetValue(v string) { // want "without a frozen-state gate" "without calling markChanged"
	n.value = v
}

// BadReinsert is the PR 6 same-parent-reinsert regression class: it
// gates on frozen but forgets markChanged, so the next PublishVersion
// would share a subtree that has in fact changed.
func (n *Node) BadReinsert(child *Node, at int) error { // want "without calling markChanged"
	if n.frozen {
		return ErrFrozen
	}
	at += int(n.nattrs)
	links := make([]*Node, 0, len(n.links)+1)
	links = append(links, n.links[:at]...)
	links = append(links, child)
	links = append(links, n.links[at:]...)
	n.links = links
	child.parent = n
	return nil
}

// BadDeepWrite mutates through an alias chain without the gate.
func (n *Node) BadDeepWrite(v string) { // want "without a frozen-state gate" "without calling markChanged"
	k := n.links[0]
	k.value = v
}

// BadInsertAttr splices the one list and counts the attribute in, and
// invalidates the shadows, but never gates on frozen state: a published
// version's attributes and children would shift under its readers.
func (n *Node) BadInsertAttr(a *Node) { // want "without a frozen-state gate"
	n.markChanged()
	n.links = append(n.links, nil)
	copy(n.links[n.nattrs+1:], n.links[n.nattrs:])
	n.links[n.nattrs] = a
	n.nattrs++
}

// BadDropAttrCount only decrements the attribute count: the first child
// turns into the last attribute.
func (n *Node) BadDropAttrCount() { // want "without a frozen-state gate" "without calling markChanged"
	n.nattrs--
}

// BadRenameAttrs writes through the attributes' part of the list.
func (n *Node) BadRenameAttrs(name string) { // want "without a frozen-state gate" "without calling markChanged"
	for _, a := range n.links[:n.nattrs] {
		a.name = name
	}
}

// BadSwapLinks reorders two entries inside the list's own backing
// array: no field is assigned, but every version sharing the list sees
// the swap.
func (n *Node) BadSwapLinks(i, j int) { // want "without a frozen-state gate" "without calling markChanged"
	n.links[i], n.links[j] = n.links[j], n.links[i]
}

// BadShiftLinks moves the children one place left with copy alone.
func (n *Node) BadShiftLinks() { // want "without a frozen-state gate" "without calling markChanged"
	copy(n.links[n.nattrs:], n.links[n.nattrs+1:])
}

// GoodSwapFresh reorders a list it has just made; construction is
// exempt.
func (n *Node) GoodSwapFresh() []*Node {
	links := append([]*Node(nil), n.links...)
	links[0], links[1] = links[1], links[0]
	copy(links, links[1:])
	return links
}

// GoodClone writes only a freshly allocated node; construction is
// exempt.
func (n *Node) GoodClone() *Node {
	c := &Node{}
	c.name = n.name
	c.value = n.value
	return c
}

// SuppressedRestore is recovery-path surgery below the public
// contract; the justification rides on the directive.
//
//xmldynvet:ignore frozenguard golden case: recovery rebuilds nodes before any version is published
func (n *Node) SuppressedRestore(v string) {
	n.value = v
}
