// Package labeling defines the contract between a dynamic labelling
// scheme and the rest of the system: building labels for a document,
// maintaining them under structural updates, and answering the XPath
// relationship queries of the paper's §5.1 "XPath Evaluations" property
// from label values alone.
package labeling

import (
	"fmt"

	"xmldyn/internal/xmltree"
)

// Label is a scheme-specific node label. Bits reports the storage cost
// in bits including any framing the scheme requires; String is the
// human-readable form printed in the paper's figures (e.g. "1.5.2.1").
type Label interface {
	fmt.Stringer
	Bits() int
}

// Interface is a labelling scheme instance bound to one document.
//
// Build assigns initial labels to every labellable node. NodeInserted is
// invoked by the update layer after a new element or attribute has been
// attached to the tree (for subtree insertions, once per labellable node
// in document order); the scheme assigns a label and may relabel other
// nodes, accounting for them in Stats. NodeDeleting is invoked before a
// subtree is detached.
type Interface interface {
	Name() string
	Build(doc *xmltree.Document) error
	// Label returns the label of n, or nil if n is not labelled.
	Label(n *xmltree.Node) Label
	// Compare orders two labels in document order. The update layer
	// re-compares at commit only pairs with a new label or a new
	// neighbour, and everything when Stats reports a relabelling: so
	// Compare must depend on its two labels alone, or on state the
	// scheme rebuilds for every labelled node whenever it changes
	// (prime's SC value, re-derived by a document-order walk on every
	// insert), and a change to a label already handed out must move
	// RelabelEvents, Relabeled or OverflowEvents.
	Compare(a, b Label) int
	// CompareNodes orders two nodes of the document by their labels
	// without handing the labels out: whenever ok is true, cmp is
	// Compare(Label(a), Label(b)). ok is false when the scheme cannot
	// tell in place — a or b is unlabelled (Label would return nil), or
	// the codes it looked at tie between distinct nodes — and the caller
	// falls back to Label and Compare. It exists because commit-time
	// verification compares every adjacency a transaction made, and a
	// label built only to be compared is garbage. CompareLabels is the
	// implementation for a scheme that stores whole labels.
	CompareNodes(a, b *xmltree.Node) (cmp int, ok bool)
	NodeInserted(n *xmltree.Node) error
	NodeDeleting(n *xmltree.Node)
	Stats() *Stats
}

// Stats instruments a labeling for the evaluation framework. Relabeled is
// the central number for the Persistent-Labels property: a fully
// persistent scheme keeps it at zero no matter the update stream.
type Stats struct {
	Assigned       int64 // labels assigned to new nodes (initial build + inserts)
	Relabeled      int64 // pre-existing labels changed by an update
	RelabelEvents  int64 // update operations that triggered any relabelling
	OverflowEvents int64 // capacity exhaustions (the §4 overflow problem)
}

// Reset zeroes the counters (used between probe phases).
func (s *Stats) Reset() { *s = Stats{} }

// Relabelling returns the counters that move exactly when the scheme
// changes a label it had already handed out — Stats without Assigned.
// Two equal readings bracket a stretch in which every existing label
// kept its value (Interface.Compare states the contract).
func (s Stats) Relabelling() Stats {
	s.Assigned = 0
	return s
}

// Optional capabilities, each answering from labels alone. A scheme that
// implements none of them still supports document ordering via Compare.

// AncestorByLabel evaluates the ancestor-descendant relationship.
type AncestorByLabel interface {
	// IsAncestor reports whether the node labelled a is a proper
	// ancestor of the node labelled d.
	IsAncestor(a, d Label) bool
}

// ParentByLabel evaluates the parent-child relationship.
type ParentByLabel interface {
	IsParent(p, c Label) bool
}

// SiblingByLabel evaluates the sibling relationship.
type SiblingByLabel interface {
	IsSibling(a, b Label) bool
}

// LevelByLabel decodes the nesting depth from a label (root element is
// level 0), the paper's Level-Encoding property.
type LevelByLabel interface {
	Level(l Label) (int, bool)
}

// Factory creates a fresh, unbound labeling instance. Scheme registries
// hand these to the evaluation framework so each probe gets an isolated
// instance.
type Factory func() Interface

// TotalBits sums the label storage cost over all labelled nodes of doc.
func TotalBits(lab Interface, doc *xmltree.Document) int {
	total := 0
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		if l := lab.Label(n); l != nil {
			total += l.Bits()
		}
		return true
	})
	return total
}

// MeanBits returns the average label size in bits, or 0 for an empty
// document.
func MeanBits(lab Interface, doc *xmltree.Document) float64 {
	n := doc.LabelledCount()
	if n == 0 {
		return 0
	}
	return float64(TotalBits(lab, doc)) / float64(n)
}

// Snapshot captures the current rendered label of every labelled node,
// keyed by node. The persistence probe compares snapshots across update
// storms.
func Snapshot(lab Interface, doc *xmltree.Document) map[*xmltree.Node]string {
	snap := make(map[*xmltree.Node]string)
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		if l := lab.Label(n); l != nil {
			snap[n] = l.String()
		}
		return true
	})
	return snap
}

// CompareLabels is CompareNodes by definition: look both labels up and
// compare them. A node compared with itself is only looked up.
func CompareLabels(lab Interface, a, b *xmltree.Node) (cmp int, ok bool) {
	la := lab.Label(a)
	if la == nil {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	lb := lab.Label(b)
	if lb == nil {
		return 0, false
	}
	return lab.Compare(la, lb), true
}

// OrderCheck verifies a run of labelled nodes that are adjacent in
// document order: each node must be labelled and must order strictly
// after the node before it. It carries only the previous node forward
// and compares through CompareNodes, so a run in order materialises no
// label. The zero value is not usable; set Lab.
type OrderCheck struct {
	Lab  Interface
	prev *xmltree.Node
}

// Restart begins a new run whose first node follows prev in document
// order; a nil prev means the run starts the document.
func (c *OrderCheck) Restart(prev *xmltree.Node) error {
	c.prev = nil
	if prev == nil {
		return nil
	}
	return c.Next(prev)
}

// Next checks n against the previous node of the run and makes n the
// previous node. The first node of a run is compared with itself, which
// checks that it is labelled.
func (c *OrderCheck) Next(n *xmltree.Node) error {
	prev := c.prev
	if prev == nil {
		prev = n
	}
	if cmp, ok := c.Lab.CompareNodes(prev, n); !ok || (cmp >= 0 && c.prev != nil) {
		if err := c.offence(n); err != nil {
			return err
		}
	}
	c.prev = n
	return nil
}

// offence materialises the labels CompareNodes would not vouch for and
// returns what is wrong with n, or nil if Compare puts it in order
// after all.
func (c *OrderCheck) offence(n *xmltree.Node) error {
	l := c.Lab.Label(n)
	if l == nil {
		return fmt.Errorf("labeling %s: unlabelled node %q", c.Lab.Name(), n.Name())
	}
	if c.prev == nil {
		return nil
	}
	pl := c.Lab.Label(c.prev)
	if pl == nil {
		return fmt.Errorf("labeling %s: unlabelled node %q", c.Lab.Name(), c.prev.Name())
	}
	if c.Lab.Compare(pl, l) >= 0 {
		return fmt.Errorf("labeling %s: document order violated: %s (%s) !< %s (%s)",
			c.Lab.Name(), c.prev.Name(), pl, n.Name(), l)
	}
	return nil
}

// VerifyOrder checks that every labellable node is labelled and that
// Compare agrees with the structural document order for every adjacent
// pair, returning the first offence or nil. It is the core correctness
// invariant every scheme must preserve under updates (paper §1: "this
// order must be maintained in the presence of updates"). One streaming
// walk: no node list is built, and no label where CompareNodes decides.
func VerifyOrder(lab Interface, doc *xmltree.Document) error {
	c := OrderCheck{Lab: lab}
	var err error
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		err = c.Next(n)
		return err == nil
	})
	return err
}
