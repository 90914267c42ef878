package labeling

import (
	"errors"
	"math/bits"
	"slices"
	"sync/atomic"

	"xmldyn/internal/xmltree"
)

// ErrHeld is Build's refusal of a document whose nodes another
// labelling already labels: two tables writing one node's slot would
// each lose the other's labels. Label a Clone of the document instead.
var ErrHeld = errors.New("labeling: document is held by another labelling")

// Table is a labelling's store: one L per labelled node, the function
// from nodes to labels of the paper's Definition 1. It is the one place
// that knows where the labels live: in entries a node finds through its
// label slot (xmltree.Node.LabelSlot), each naming its node, so a stale
// slot, a clone's node or a version's node reads unlabelled. The zero
// value is empty and answers Get; Reset makes it ready for Set.
type Table[L any] struct {
	doc   *xmltree.Document
	id    uint64       // the number the table holds doc by
	block []entry[L]   // Reset's: the slots Build fills
	pages [][]entry[L] // past block: page k holds firstPage<<(k/4) entries
	next  uint32       // slots handed out, block first
	free  []uint32     // slots Forget emptied, for Set to reuse
	len   int          // entries naming a node
}

type entry[L any] struct {
	n *xmltree.Node
	l L
}

// firstPage is the size of the first four pages past the block; every
// four pages the size doubles. A page is never copied, so growth moves
// no entry, and what a table makes and does not use is at most its last
// page: an eighth of its pages.
const firstPage = 64

// tables numbers the tables that hold documents. A document keeps the
// number, not the table, so it keeps no labels alive.
var tables atomic.Uint64

// Reset empties the table, sized for n labels, and makes it doc's
// labelling, letting go of the document it held before. It returns
// ErrHeld when another table holds doc.
func (t *Table[L]) Reset(doc *xmltree.Document, n int) error {
	if doc != t.doc {
		if t.id == 0 {
			t.id = tables.Add(1)
		}
		if !doc.HoldLabels(0, t.id) {
			return ErrHeld
		}
		if t.doc != nil {
			t.doc.HoldLabels(t.id, 0)
		}
		t.doc = doc
	}
	*t = Table[L]{doc: doc, id: t.id, block: make([]entry[L], n)}
	return nil
}

// at returns the entry of slot s, or nil past the last page.
func (t *Table[L]) at(s uint32) *entry[L] {
	if int(s) < len(t.block) {
		return &t.block[s]
	}
	// Pages 4g to 4g+3 hold firstPage<<g entries each, from slot
	// 4·firstPage·(2^g − 1) past the block.
	o := uint(int(s) - len(t.block))
	g := bits.Len(o/(4*firstPage)+1) - 1
	o -= 4 * firstPage * (1<<g - 1)
	k := 4*g + int(o/(firstPage<<g))
	if k >= len(t.pages) {
		return nil
	}
	return &t.pages[k][o&(firstPage<<g-1)]
}

// Get returns n's entry and whether it has one.
func (t *Table[L]) Get(n *xmltree.Node) (L, bool) {
	if e := t.at(n.LabelSlot()); e != nil && e.n == n {
		return e.l, true
	}
	var zero L
	return zero, false
}

// Set gives n the entry l, in the slot n has or in a free one.
func (t *Table[L]) Set(n *xmltree.Node, l L) {
	if e := t.at(n.LabelSlot()); e != nil && e.n == n {
		e.l = l
		return
	}
	s := t.next
	if k := len(t.free); k > 0 {
		s, t.free = t.free[k-1], t.free[:k-1]
	} else if t.next++; t.at(s) == nil {
		t.pages = append(grown(t.pages), make([]entry[L], firstPage<<(len(t.pages)/4)))
	}
	n.SetLabelSlot(s)
	*t.at(s) = entry[L]{n, l}
	t.len++
}

// Len returns the number of labelled nodes.
func (t *Table[L]) Len() int { return t.len }

// Forget drops the entries of the labelled subtree at n: n, its
// attributes and its element descendants with theirs. It is every
// table scheme's NodeDeleting.
func (t *Table[L]) Forget(n *xmltree.Node) {
	n.WalkLabelled(func(x *xmltree.Node) bool {
		if e := t.at(x.LabelSlot()); e != nil && e.n == x {
			*e = entry[L]{}
			t.free = append(grown(t.free), x.LabelSlot())
			t.len--
		}
		return true
	})
}

// grown returns s with room for one more element: 8 at first, then
// twice as many each time it fills, so a table's lists of pages and of
// free slots skip append's first doublings from one.
func grown[E any](s []E) []E {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(8, len(s)))
}

// LabelOf is Interface.Label for a table of whole labels: n's label, or
// nil when n has none.
func LabelOf[L Label](t *Table[L], n *xmltree.Node) Label {
	l, ok := t.Get(n)
	if !ok {
		return nil
	}
	return l
}
