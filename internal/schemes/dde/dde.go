// Package dde implements the DDE labelling scheme of Xu, Ling, Wu & Bao
// [28] ("DDE: From Dewey to a Fully Dynamic XML Labeling Scheme"), the
// second scheme the paper's conclusion queues up for evaluation. DDE
// starts from Dewey labels and makes them fully dynamic: a node inserted
// between siblings u and v takes the component-wise sum u+v (a
// generalised mediant), before-first/after-last adjust only the final
// component, and order is decided by comparing component ratios via
// cross multiplication — no division, no relabelling, compact growth.
package dde

import (
	"fmt"
	"strconv"
	"strings"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/xmltree"
)

// Label is a DDE label: a component sequence whose first component is
// always positive. Children extend their parent's label by one
// component; sibling insertions keep the length fixed.
type Label []int64

// String joins components with dots, Dewey-style.
func (l Label) String() string {
	parts := make([]string, len(l))
	for i, v := range l {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ".")
}

// Bits implements labeling.Label: zigzagged LEB128 per component.
func (l Label) Bits() int {
	total := 0
	for _, v := range l {
		z := uint64(v<<1) ^ uint64(v>>63)
		total += 8 * labels.LEB128Len(z)
	}
	return total
}

// compareLabels orders two DDE labels: the first index at which the
// component ratios (relative to the first component) differ decides; a
// proper ratio-prefix (ancestor) orders first. Raw comparison breaks the
// theoretical tie of proportional-but-distinct labels, which cannot
// coexist among live siblings but keeps the order total.
func compareLabels(a, b Label) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		lhs := a[i] * b[0]
		rhs := b[i] * a[0]
		switch {
		case lhs < rhs:
			return -1
		case lhs > rhs:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	// Proportional and equal length: tie-break on raw components.
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// proportionalPrefix reports whether the first k components of d are
// proportional to a's first k components (d_i * a_0 == a_i * d_0).
func proportionalPrefix(a, d Label, k int) bool {
	for i := 0; i < k; i++ {
		if d[i]*a[0] != a[i]*d[0] {
			return false
		}
	}
	return true
}

// Labeling is the DDE labeling bound to one document.
type Labeling struct {
	doc   *xmltree.Document
	lab   labeling.Table[Label]
	stats labeling.Stats
}

// New returns an unbound DDE labeling.
func New() *Labeling {
	return &Labeling{}
}

// Name implements labeling.Interface.
func (dl *Labeling) Name() string { return "dde" }

// Stats implements labeling.Interface.
func (dl *Labeling) Stats() *labeling.Stats { return &dl.stats }

// Build implements labeling.Interface: the root is 1; the i-th
// labellable child of a node extends the parent's label with i.
func (dl *Labeling) Build(doc *xmltree.Document) error {
	dl.doc = doc
	if err := dl.lab.Reset(doc, doc.LabelledCount()); err != nil {
		return err
	}
	dl.stats.Reset()
	var assign func(parent *xmltree.Node, parentLabel Label)
	assign = func(parent *xmltree.Node, parentLabel Label) {
		for i, k := range xmltree.LabelledChildren(parent) {
			l := make(Label, len(parentLabel)+1)
			copy(l, parentLabel)
			l[len(parentLabel)] = int64(i + 1)
			dl.lab.Set(k, l)
			dl.stats.Assigned++
			assign(k, l)
		}
	}
	root := doc.Root()
	if root == nil {
		return fmt.Errorf("dde: empty document")
	}
	dl.lab.Set(root, Label{1})
	dl.stats.Assigned++
	assign(root, Label{1})
	return nil
}

// Label implements labeling.Interface.
func (dl *Labeling) Label(n *xmltree.Node) labeling.Label { return labeling.LabelOf(&dl.lab, n) }

// Compare implements labeling.Interface.
func (dl *Labeling) Compare(a, b labeling.Label) int {
	return compareLabels(a.(Label), b.(Label))
}

// CompareNodes implements labeling.Interface: the label table holds
// whole labels, so it is a lookup of each and Compare.
func (dl *Labeling) CompareNodes(a, b *xmltree.Node) (int, bool) {
	return labeling.CompareLabels(dl, a, b)
}

// IsAncestor implements labeling.AncestorByLabel: d descends from a iff
// d is longer and its prefix is proportional to a.
func (dl *Labeling) IsAncestor(a, d labeling.Label) bool {
	la, ld := a.(Label), d.(Label)
	return len(ld) > len(la) && proportionalPrefix(la, ld, len(la))
}

// IsParent implements labeling.ParentByLabel.
func (dl *Labeling) IsParent(p, c labeling.Label) bool {
	lp, lc := p.(Label), c.(Label)
	return len(lc) == len(lp)+1 && proportionalPrefix(lp, lc, len(lp))
}

// IsSibling implements labeling.SiblingByLabel: equal length, first
// len-1 components proportional, not the same label.
func (dl *Labeling) IsSibling(a, b labeling.Label) bool {
	la, lb := a.(Label), b.(Label)
	if len(la) != len(lb) || len(la) < 2 {
		return false
	}
	return proportionalPrefix(la, lb, len(la)-1) && compareLabels(la, lb) != 0
}

// Level implements labeling.LevelByLabel.
func (dl *Labeling) Level(l labeling.Label) (int, bool) {
	return len(l.(Label)) - 1, true
}

// maxComponent guards against int64 overflow in the additive growth.
const maxComponent = int64(1) << 60

// NodeInserted implements labeling.Interface.
func (dl *Labeling) NodeInserted(n *xmltree.Node) error {
	parent := xmltree.LabelledParent(n)
	prev, next, ok := xmltree.LabelledSiblings(n)
	if !ok {
		return fmt.Errorf("dde: inserted node %q not among siblings", n.Name())
	}
	var left, right Label
	if prev != nil {
		left, _ = dl.lab.Get(prev)
	}
	if next != nil {
		right, _ = dl.lab.Get(next)
	}
	var l Label
	switch {
	case left == nil && right == nil:
		// Only labellable child: first child of its parent.
		var parentLabel Label
		if parent != nil {
			parentLabel, _ = dl.lab.Get(parent)
		}
		l = append(append(Label{}, parentLabel...), 1)
	case left == nil:
		// Before first: decrement the final component.
		l = append(Label{}, right...)
		l[len(l)-1]--
	case right == nil:
		// After last: increment the final component.
		l = append(Label{}, left...)
		l[len(l)-1]++
	default:
		// Between: component-wise sum (generalised mediant).
		if len(left) != len(right) {
			return fmt.Errorf("dde: sibling labels %s and %s have different lengths", left, right)
		}
		l = make(Label, len(left))
		for i := range left {
			l[i] = left[i] + right[i]
		}
	}
	for _, v := range l {
		if v > maxComponent || v < -maxComponent {
			dl.stats.OverflowEvents++
			return fmt.Errorf("%w: DDE component %d beyond the additive budget", labels.ErrOverflow, v)
		}
	}
	dl.lab.Set(n, l)
	dl.stats.Assigned++
	return nil
}

// NodeDeleting implements labeling.Interface.
func (dl *Labeling) NodeDeleting(n *xmltree.Node) { dl.lab.Forget(n) }
