package labeling

import (
	"iter"
	"maps"

	"xmldyn/internal/xmltree"
)

// Table is a labelling's store: one L per labelled node, the function
// from nodes to labels of the paper's Definition 1. It is the one place
// that knows the labels live in a map keyed by node, so a change of
// that storage is a change of this file. The zero value is empty and
// answers Get; Reset makes it ready for Set.
type Table[L any] struct {
	m map[*xmltree.Node]L
}

// Reset empties the table, sized for n labels.
func (t *Table[L]) Reset(n int) { t.m = make(map[*xmltree.Node]L, n) }

// Get returns n's entry and whether it has one.
func (t *Table[L]) Get(n *xmltree.Node) (L, bool) {
	l, ok := t.m[n]
	return l, ok
}

// Set gives n the entry l.
func (t *Table[L]) Set(n *xmltree.Node, l L) { t.m[n] = l }

// Len returns the number of labelled nodes.
func (t *Table[L]) Len() int { return len(t.m) }

// All ranges over the entries in no particular order.
func (t *Table[L]) All() iter.Seq2[*xmltree.Node, L] { return maps.All(t.m) }

// Forget drops the entries of the labelled subtree at n: n, its
// attributes and its element descendants with theirs. It is every
// table scheme's NodeDeleting.
func (t *Table[L]) Forget(n *xmltree.Node) {
	n.WalkLabelled(func(x *xmltree.Node) bool {
		delete(t.m, x)
		return true
	})
}

// LabelOf is Interface.Label for a table of whole labels: n's label, or
// nil when n has none.
func LabelOf[L Label](t *Table[L], n *xmltree.Node) Label {
	l, ok := t.m[n]
	if !ok {
		return nil
	}
	return l
}
