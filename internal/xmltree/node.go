// Package xmltree implements the ordered rooted tree representation of XML
// documents that every labelling scheme in this library is defined over
// (paper §2.1). The tree is the XPath data model's view of a document:
// internal nodes are elements, attributes are ordered before element
// children, and text leaves carry data values. Text, comment and
// processing-instruction nodes are retained for serialisation and for the
// encoding scheme (paper §2.3) but are not assigned labels: following the
// paper, "leaf nodes will always contain content values and not structural
// information and are thus considered by the XML encoding scheme and not
// the labelling scheme".
package xmltree

import (
	"errors"
	"fmt"
	"strings"
)

// Kind identifies the type of a tree node.
type Kind uint8

// Node kinds. Document is the virtual root that owns the root element;
// it is never labelled and never serialised.
const (
	KindDocument Kind = iota
	KindElement
	KindAttribute
	KindText
	KindComment
	KindProcInst
)

// String returns the XPath-style name of the node kind.
func (k Kind) String() string {
	switch k {
	case KindDocument:
		return "document"
	case KindElement:
		return "element"
	case KindAttribute:
		return "attribute"
	case KindText:
		return "text"
	case KindComment:
		return "comment"
	case KindProcInst:
		return "processing-instruction"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Errors reported by tree mutation.
var (
	ErrNotAttached     = errors.New("xmltree: node is not attached to a parent")
	ErrWrongKind       = errors.New("xmltree: operation not defined for this node kind")
	ErrCycle           = errors.New("xmltree: operation would create a cycle")
	ErrForeignNode     = errors.New("xmltree: reference node belongs to a different parent")
	ErrIndexOutOfRange = errors.New("xmltree: child index out of range")
)

// Node is a single node of the XML tree. The zero value is not useful;
// construct nodes with NewElement and friends or by parsing.
type Node struct {
	kind   Kind
	frozen bool   // immutable snapshot node (freeze.go); mutators refuse it
	view   bool   // version-view shell: mirror is its source (persist.go)
	nattrs uint32 // links[:nattrs] are the attributes
	name   string // element/attribute name, PI target
	value  string // attribute value, text/comment content, PI data
	parent *Node
	links  []*Node // attributes, then non-attribute children, each in document order

	// Persistent-version bookkeeping (persist.go). On a live node mirror
	// is its shadow: its up-to-date persistent counterpart, nil while the
	// node has unpublished changes. On a view node it is the persistent
	// node the view mirrors. expanded (accessed atomically) marks a view
	// node whose child shells have been materialised.
	mirror   *Node
	expanded uint32

	// slot is the node's index in the label table of the labelling that
	// holds its document (labeling.Table). It is bookkeeping, not
	// content: a copy or a version of the node does not carry it.
	slot uint32
}

// NewElement returns a detached element node.
func NewElement(name string) *Node { return &Node{kind: KindElement, name: name} }

// NewAttribute returns a detached attribute node.
func NewAttribute(name, value string) *Node {
	return &Node{kind: KindAttribute, name: name, value: value}
}

// NewText returns a detached text node.
func NewText(value string) *Node { return &Node{kind: KindText, value: value} }

// NewComment returns a detached comment node.
func NewComment(value string) *Node { return &Node{kind: KindComment, value: value} }

// NewProcInst returns a detached processing-instruction node.
func NewProcInst(target, data string) *Node {
	return &Node{kind: KindProcInst, name: target, value: data}
}

// Kind returns the node kind.
func (n *Node) Kind() Kind { return n.kind }

// Name returns the element or attribute name (or PI target).
func (n *Node) Name() string { return n.name }

// SetName renames an element, attribute or processing instruction.
// Renaming is a content update in the paper's taxonomy (§3.1) and never
// affects labels. Panics on a frozen node (see freeze.go).
func (n *Node) SetName(name string) { n.mustThaw(); n.markChanged(); n.name = name }

// Value returns the node's own data value: attribute value, text content,
// comment text or PI data. Elements return "".
func (n *Node) Value() string { return n.value }

// SetValue updates the node's data value (content update). Panics on
// a frozen node (see freeze.go).
func (n *Node) SetValue(v string) { n.mustThaw(); n.markChanged(); n.value = v }

// LabelSlot returns the node's label slot (see Document.HoldLabels).
func (n *Node) LabelSlot() uint32 { return n.slot }

// SetLabelSlot sets the node's label slot. Only the labelling that holds
// the node's document calls it.
func (n *Node) SetLabelSlot(s uint32) { n.slot = s }

// Parent returns the parent node, or nil for a detached node or the
// document root.
func (n *Node) Parent() *Node { return n.parent }

// Attributes returns the attribute children in document order.
// The returned slice must not be mutated.
func (n *Node) Attributes() []*Node { return n.attributes() }

// Children returns the non-attribute children in document order.
// The returned slice must not be mutated.
func (n *Node) Children() []*Node { return n.children() }

// Text returns the concatenated text content of the node's direct text
// children (for elements) or the node's own value otherwise. This is the
// "Value" column of the paper's Figure 2 encoding table.
func (n *Node) Text() string {
	if n.kind != KindElement && n.kind != KindDocument {
		return n.value
	}
	var sb strings.Builder
	for _, c := range n.Source().children() {
		if c.kind == KindText {
			sb.WriteString(c.value)
		}
	}
	return sb.String()
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Source().attributes() {
		if a.name == name {
			return a.value, true
		}
	}
	return "", false
}

// Depth returns the node's nesting depth: the root element has depth 0,
// matching the level component of the LSDX labels in the paper's Figure 5
// (root label "0a").
func (n *Node) Depth() int {
	d := 0
	for p := n.parent; p != nil && p.kind != KindDocument; p = p.parent {
		d++
	}
	return d
}

// Index returns the position of the node among its parent's children of
// the same class (attributes index among attributes, other kinds among
// non-attribute children). It returns -1 for detached nodes.
func (n *Node) Index() int {
	if n.parent == nil {
		return -1
	}
	list := n.parent.children()
	if n.kind == KindAttribute {
		list = n.parent.attributes()
	}
	for i, c := range list {
		if c == n {
			return i
		}
	}
	return -1
}

// PrevSibling returns the preceding non-attribute sibling, or nil.
func (n *Node) PrevSibling() *Node {
	if n.parent == nil || n.kind == KindAttribute {
		return nil
	}
	i := n.Index()
	if i <= 0 {
		return nil
	}
	return n.parent.children()[i-1]
}

// NextSibling returns the following non-attribute sibling, or nil.
func (n *Node) NextSibling() *Node {
	if n.parent == nil || n.kind == KindAttribute {
		return nil
	}
	i := n.Index()
	kids := n.parent.children()
	if i < 0 || i+1 >= len(kids) {
		return nil
	}
	return kids[i+1]
}

// FirstChild returns the first non-attribute child, or nil.
func (n *Node) FirstChild() *Node {
	kids := n.children()
	if len(kids) == 0 {
		return nil
	}
	return kids[0]
}

// LastChild returns the last non-attribute child, or nil.
func (n *Node) LastChild() *Node {
	kids := n.children()
	if len(kids) == 0 {
		return nil
	}
	return kids[len(kids)-1]
}

// IsAncestorOf reports whether n is a proper ancestor of d, computed from
// parent pointers. Labelling schemes answer the same question from labels
// alone; the tree answer is the ground truth the framework probes compare
// against.
func (n *Node) IsAncestorOf(d *Node) bool {
	for p := d.parent; p != nil; p = p.parent {
		if p == n {
			return true
		}
	}
	return false
}

// Root returns the topmost ancestor of n (the document node for attached
// nodes of a parsed document).
func (n *Node) Root() *Node {
	r := n
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// --- mutation -------------------------------------------------------------

func (n *Node) canContain(c *Node) error {
	switch n.kind {
	case KindElement:
	case KindDocument:
		if c.kind == KindAttribute || c.kind == KindText {
			return fmt.Errorf("%w: document cannot contain %v", ErrWrongKind, c.kind)
		}
	default:
		return fmt.Errorf("%w: %v cannot contain children", ErrWrongKind, n.kind)
	}
	if c.kind == KindDocument {
		return fmt.Errorf("%w: document node cannot be a child", ErrWrongKind)
	}
	if c == n || c.IsAncestorOf(n) {
		return ErrCycle
	}
	return nil
}

// SetAttr sets (or replaces) an attribute value and returns the attribute
// node. New attributes are appended after existing ones.
func (n *Node) SetAttr(name, value string) (*Node, error) {
	if n.frozen {
		return nil, ErrFrozen
	}
	if n.kind != KindElement {
		return nil, fmt.Errorf("%w: attributes on %v", ErrWrongKind, n.kind)
	}
	for _, a := range n.links[:n.nattrs] {
		if a.name == name {
			a.markChanged()
			a.value = value
			return a, nil
		}
	}
	a := NewAttribute(name, value)
	return a, n.InsertAttrAt(int(n.nattrs), a)
}

// AppendAttr appends an attribute node, preserving insertion order.
func (n *Node) AppendAttr(a *Node) error { return n.InsertAttrAt(int(n.nattrs), a) }

// InsertAttrAt inserts a as the i-th attribute of n (clamped to the
// list bounds), preserving the order of the others. The non-attribute
// children after it move up by one in n's list.
func (n *Node) InsertAttrAt(i int, a *Node) error {
	if n.frozen || a.frozen {
		return ErrFrozen
	}
	if n.kind != KindElement {
		return fmt.Errorf("%w: attributes on %v", ErrWrongKind, n.kind)
	}
	if a.kind != KindAttribute {
		return fmt.Errorf("%w: %v inserted as attribute", ErrWrongKind, a.kind)
	}
	i = max(0, min(i, int(n.nattrs)))
	if a.parent != nil {
		// Moving an attribute within the same element: its detach
		// shifts everything after it left by one, so adjust the
		// target index or the splice below would run past the list.
		if a.parent == n {
			if idx := a.Index(); idx >= 0 && idx < i {
				i--
			}
		}
		a.Detach()
	}
	a.parent = n
	n.markChanged()
	n.links = append(n.links, nil)
	copy(n.links[i+1:], n.links[i:])
	n.links[i] = a
	n.nattrs++
	return nil
}

// InsertChildAt inserts c as the i-th non-attribute child of n.
func (n *Node) InsertChildAt(i int, c *Node) error {
	if n.frozen || c.frozen {
		return ErrFrozen
	}
	if err := n.canContain(c); err != nil {
		return err
	}
	if c.kind == KindAttribute {
		return fmt.Errorf("%w: attribute inserted as child", ErrWrongKind)
	}
	if i < 0 || i > len(n.links)-int(n.nattrs) {
		return ErrIndexOutOfRange
	}
	if c.parent != nil {
		// Moving a child within the same parent: its detach shifts
		// everything after it left by one, so adjust the target index
		// or the splice below would run past the list (AppendChild of
		// an existing last child hit exactly this).
		if c.parent == n {
			if idx := c.Index(); idx >= 0 && idx < i {
				i--
			}
		}
		c.Detach()
	}
	c.parent = n
	n.markChanged()
	i += int(n.nattrs)
	n.links = append(n.links, nil)
	copy(n.links[i+1:], n.links[i:])
	n.links[i] = c
	return nil
}

// AppendChild appends c as the last non-attribute child of n.
func (n *Node) AppendChild(c *Node) error {
	return n.InsertChildAt(len(n.links)-int(n.nattrs), c)
}

// PrependChild inserts c as the first non-attribute child of n.
func (n *Node) PrependChild(c *Node) error { return n.InsertChildAt(0, c) }

// InsertBefore inserts c as the immediately preceding sibling of ref,
// which must be an attached non-attribute child of n's future parent.
func InsertBefore(ref, c *Node) error {
	p := ref.parent
	if p == nil {
		return ErrNotAttached
	}
	i := ref.Index()
	if i < 0 {
		return ErrForeignNode
	}
	return p.InsertChildAt(i, c)
}

// InsertAfter inserts c as the immediately following sibling of ref.
func InsertAfter(ref, c *Node) error {
	p := ref.parent
	if p == nil {
		return ErrNotAttached
	}
	i := ref.Index()
	if i < 0 {
		return ErrForeignNode
	}
	return p.InsertChildAt(i+1, c)
}

// Detach removes n from its parent, leaving n (and its subtree) intact.
// Detaching an already detached node is a no-op. Panics on a frozen
// node (see freeze.go).
func (n *Node) Detach() {
	n.mustThaw()
	p := n.parent
	if p == nil {
		return
	}
	// The detached subtree keeps its own shadows: its content is
	// unchanged, so a later re-graft (move) still shares it with prior
	// versions. Only the old parent's spine is invalidated.
	p.markChanged()
	for i, c := range p.links {
		if c == n {
			p.links = append(p.links[:i], p.links[i+1:]...)
			if n.kind == KindAttribute {
				p.nattrs--
			}
			break
		}
	}
	n.parent = nil
}

// Slab is the storage of a tree that is built in one go — decoded from
// a snapshot, or copied: its nodes are cut from one []Node and their
// lists from one []*Node, so building the tree costs two allocations
// whatever its size. The zero Slab is empty, and an exhausted one behaves
// the same: nodes and lists come from the heap. What is cut from a slab
// is freed with it: holding any one node keeps the whole slab reachable.
type Slab struct {
	nodes  []Node
	links  []*Node // what is left to cut
	newest []*Node // the newest window and all that is left after it
}

// NewSlab returns a slab for nodes nodes whose lists hold links entries
// in total.
func NewSlab(nodes, links int) Slab {
	return Slab{nodes: make([]Node, nodes), links: make([]*Node, links)}
}

// New returns a detached, childless node.
func (s *Slab) New(kind Kind, name, value string) *Node {
	var n *Node
	if len(s.nodes) > 0 {
		n, s.nodes = &s.nodes[0], s.nodes[1:]
	} else {
		n = new(Node)
	}
	n.kind, n.name, n.value = kind, name, value
	return n
}

// Reserve gives n's full list room for exactly count more entries. A list
// that is the slab's newest window grows in place, so a decoder that
// reserves a node's attributes, reads them, then reserves its children
// uses one window; any other list is copied into a new one.
func (s *Slab) Reserve(n *Node, count int) {
	l := len(n.links)
	switch {
	case count <= 0:
	case l > 0 && l == cap(n.links) && l+count <= len(s.newest) && &n.links[0] == &s.newest[0]:
		n.links, s.links = s.newest[:l:l+count], s.links[count:]
	default:
		n.links = append(s.window(l+count), n.links...)
	}
}

// window cuts an empty list of capacity n. The capacity is exact (a
// three-index slice): the windows of a slab are neighbours, and an
// append to a full one must move it, not write into the next.
func (s *Slab) window(n int) []*Node {
	if n > len(s.links) {
		return make([]*Node, 0, n)
	}
	s.newest = s.links
	w := s.links[:0:n]
	s.links = s.links[n:]
	return w
}

// Clone returns a deep copy of the subtree rooted at n. The copy is
// detached and always mutable: frozenness is a property of the
// original snapshot, never of a copy (freeze.go). Its nodes and exact
// lists are cut from one Slab, as a decoded tree's are.
func (n *Node) Clone() *Node {
	slab := NewSlab(n.size())
	return n.clone(&slab)
}

// size counts the nodes of the subtree at n and their list entries:
// what copying it takes.
func (n *Node) size() (nodes, links int) {
	n = n.Source()
	nodes, links = 1, len(n.links)
	for _, c := range n.links {
		k, l := c.size()
		nodes, links = nodes+k, links+l
	}
	return nodes, links
}

// clone copies the subtree at n, taking its nodes and lists from slab.
func (n *Node) clone(slab *Slab) *Node {
	n = n.Source()
	c := slab.New(n.kind, n.name, n.value)
	c.nattrs = n.nattrs
	slab.Reserve(c, len(n.links))
	for _, k := range n.links {
		kc := k.clone(slab)
		kc.parent = c
		c.links = append(c.links, kc)
	}
	return c
}

// Validate checks structural invariants of the subtree rooted at n:
// parent pointers are consistent, no node appears twice, and containment
// rules hold. It is used by tests and by failure-injection probes.
func (n *Node) Validate() error {
	seen := make(map[*Node]bool)
	return n.validate(seen)
}

func (n *Node) validate(seen map[*Node]bool) error {
	if seen[n] {
		return fmt.Errorf("xmltree: node %q appears twice", n.name)
	}
	seen[n] = true
	for _, a := range n.attributes() {
		if a.kind != KindAttribute {
			return fmt.Errorf("xmltree: non-attribute %v in attribute list of %q", a.kind, n.name)
		}
		if a.parent != n {
			return fmt.Errorf("xmltree: attribute %q has wrong parent", a.name)
		}
		if err := a.validate(seen); err != nil {
			return err
		}
	}
	for _, c := range n.children() {
		if c.kind == KindAttribute {
			return fmt.Errorf("xmltree: attribute %q in child list of %q", c.name, n.name)
		}
		if c.parent != n {
			return fmt.Errorf("xmltree: child %q has wrong parent", c.name)
		}
		if err := n.canContain(c); err != nil && !errors.Is(err, ErrCycle) {
			return err
		}
		if err := c.validate(seen); err != nil {
			return err
		}
	}
	return nil
}
