package xmltree

import "fmt"

// Document is the virtual root of an XML tree. It owns exactly one root
// element plus any top-level comments and processing instructions.
type Document struct {
	node *Node // KindDocument
}

// NewDocument returns an empty document.
func NewDocument() *Document {
	return &Document{node: &Node{kind: KindDocument}}
}

// NewDocumentWithRoot returns a document whose root element is root.
func NewDocumentWithRoot(root *Node) (*Document, error) {
	d := NewDocument()
	if err := d.SetRoot(root); err != nil {
		return nil, err
	}
	return d, nil
}

// Node returns the underlying document node.
func (d *Document) Node() *Node { return d.node }

// Root returns the root element, or nil for an empty document.
func (d *Document) Root() *Node {
	for _, c := range d.node.children() {
		if c.kind == KindElement {
			return c
		}
	}
	return nil
}

// SetRoot installs root as the document's root element, replacing any
// existing root element. It returns ErrFrozen on a frozen document or
// root — checked up front, before the old root is detached, so a
// frozen document is never half-mutated (and never trips the void
// mutators' panic; see freeze.go).
func (d *Document) SetRoot(root *Node) error {
	if d.node.frozen || root.frozen {
		return ErrFrozen
	}
	if root.Kind() != KindElement {
		return fmt.Errorf("%w: document root must be an element", ErrWrongKind)
	}
	if old := d.Root(); old != nil {
		old.Detach()
	}
	return d.node.AppendChild(root)
}

// LabelledCount returns the number of labellable nodes (elements and
// attributes) in the document. Text, comment and PI nodes do not receive
// labels (paper §3.1.1).
func (d *Document) LabelledCount() int {
	n := 0
	walkLabelled(d.node.Source(), func(*Node) bool { n++; return true })
	return n
}

// NodeCount returns the total number of nodes of all kinds, excluding the
// document node itself.
func (d *Document) NodeCount() int {
	n := -1 // exclude document node
	var walk func(*Node)
	walk = func(x *Node) {
		n++
		for _, a := range x.attributes() {
			walk(a)
		}
		for _, c := range x.children() {
			walk(c)
		}
	}
	walk(d.node.Source())
	return n
}

// MaxDepth returns the maximum element/attribute depth of the document
// (root element depth 0), or -1 for an empty document.
func (d *Document) MaxDepth() int {
	max := -1
	d.WalkLabelled(func(n *Node) bool {
		if dd := n.Depth(); dd > max {
			max = dd
		}
		return true
	})
	return max
}

// Validate checks the structural invariants of the whole tree.
func (d *Document) Validate() error {
	if err := d.node.Validate(); err != nil {
		return err
	}
	roots := 0
	for _, c := range d.node.children() {
		if c.kind == KindElement {
			roots++
		}
	}
	if roots > 1 {
		return fmt.Errorf("xmltree: document has %d root elements", roots)
	}
	return nil
}

// Clone returns a deep copy of the document.
func (d *Document) Clone() *Document {
	return &Document{node: d.node.Clone()}
}
