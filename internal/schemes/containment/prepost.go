// Package containment implements the containment (interval / region
// encoded) labelling schemes of the paper's §3.1.1: the pre/post plane of
// the XPath Accelerator [9] and generic begin/end interval labelings over
// a pluggable code algebra (XRel [30], structural joins [1, 31], the
// gap-allocation extensions [17, 11], and — via the orthogonality
// property — QED-range and vector-range mountings).
package containment

import (
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/xmltree"
)

// PrePostLabel is the XPath Accelerator label: preorder rank, postorder
// rank and level. Node u is an ancestor of v iff pre(u) < pre(v) and
// post(u) > post(v) (Dietz [6]); adding the level enables the
// parent-child test. The sibling relationship is not decidable from the
// label alone, which is why the paper grades the scheme Partial on XPath
// Evaluations.
type PrePostLabel struct {
	Pre, Post int64
	Lvl       int
}

// String renders the label as the "pre,post" pairs of Figure 1(b).
func (l PrePostLabel) String() string { return fmt.Sprintf("%d,%d", l.Pre, l.Post) }

// Bits implements labeling.Label: two fixed 32-bit ranks plus an 8-bit
// level, the flat encoding the paper classifies as Fixed.
func (l PrePostLabel) Bits() int { return 32 + 32 + 8 }

// PrePost is the XPath Accelerator labeling. Every structural update
// renumbers the traversal ranks; the relabelling cost it accrues is the
// paper's argument for why global order is "unsuitable for a dynamic
// labelling scheme" (§3.1).
type PrePost struct {
	doc   *xmltree.Document
	lab   labeling.Table[PrePostLabel]
	stats labeling.Stats
}

// NewPrePost returns an unbound XPath Accelerator labeling.
func NewPrePost() *PrePost {
	return &PrePost{}
}

// Name implements labeling.Interface.
func (pp *PrePost) Name() string { return "xpath-accelerator" }

// Stats implements labeling.Interface.
func (pp *PrePost) Stats() *labeling.Stats { return &pp.stats }

// Build implements labeling.Interface.
func (pp *PrePost) Build(doc *xmltree.Document) error {
	pp.doc = doc
	if err := pp.lab.Reset(doc, doc.LabelledCount()); err != nil {
		return err
	}
	pp.renumber()
	return nil
}

// renumber recomputes all ranks over the table in place. A node without
// a label is Assigned one; a label that changes counts in Relabeled; one
// that stays is not written.
func (pp *PrePost) renumber() {
	changed := int64(0)
	ranks(pp.doc, func(x *xmltree.Node, pre, post, lvl int) {
		l := PrePostLabel{Pre: int64(pre), Post: int64(post), Lvl: lvl}
		switch old, ok := pp.lab.Get(x); {
		case !ok:
			pp.stats.Assigned++
		case old != l:
			changed++
		default:
			return
		}
		pp.lab.Set(x, l)
	})
	if changed > 0 {
		pp.stats.Relabeled += changed
		pp.stats.RelabelEvents++
	}
}

// ranks walks the labellable nodes of doc depth first, once, and hands
// each — on the way back up, its attributes and children behind it — its
// preorder rank, its postorder rank and its level.
func ranks(doc *xmltree.Document, visit func(x *xmltree.Node, pre, post, lvl int)) {
	pre, post := 0, 0
	var walk func(x *xmltree.Node, lvl int)
	walk = func(x *xmltree.Node, lvl int) {
		for _, c := range xmltree.LabelledChildren(x) {
			mine := pre
			pre++
			walk(c, lvl+1)
			visit(c, mine, post, lvl)
			post++
		}
	}
	walk(doc.Node(), 0)
}

// Label implements labeling.Interface.
func (pp *PrePost) Label(n *xmltree.Node) labeling.Label { return labeling.LabelOf(&pp.lab, n) }

// Compare implements labeling.Interface: document order is preorder rank
// order (global order).
func (pp *PrePost) Compare(a, b labeling.Label) int {
	la, lb := a.(PrePostLabel), b.(PrePostLabel)
	switch {
	case la.Pre < lb.Pre:
		return -1
	case la.Pre > lb.Pre:
		return 1
	default:
		return 0
	}
}

// CompareNodes implements labeling.Interface: the label table holds
// whole labels, so it is a lookup of each and Compare.
func (pp *PrePost) CompareNodes(a, b *xmltree.Node) (int, bool) {
	return labeling.CompareLabels(pp, a, b)
}

// IsAncestor implements labeling.AncestorByLabel via the pre/post plane.
func (pp *PrePost) IsAncestor(a, d labeling.Label) bool {
	la, ld := a.(PrePostLabel), d.(PrePostLabel)
	return la.Pre < ld.Pre && la.Post > ld.Post
}

// IsParent implements labeling.ParentByLabel: ancestor at exactly one
// level up.
func (pp *PrePost) IsParent(p, c labeling.Label) bool {
	lp, lc := p.(PrePostLabel), c.(PrePostLabel)
	return pp.IsAncestor(p, c) && lp.Lvl == lc.Lvl-1
}

// Level implements labeling.LevelByLabel.
func (pp *PrePost) Level(l labeling.Label) (int, bool) {
	return l.(PrePostLabel).Lvl, true
}

// NodeInserted implements labeling.Interface: a structural insert shifts
// the ranks of every node after the insertion point, so the whole
// document is renumbered and the moved labels are counted.
func (pp *PrePost) NodeInserted(n *xmltree.Node) error {
	pp.renumber()
	if _, ok := pp.lab.Get(n); !ok {
		return fmt.Errorf("xpath-accelerator: inserted node %q not reachable", n.Name())
	}
	return nil
}

// NodeDeleting implements labeling.Interface. Remaining nodes keep
// stale ranks until the next insertion; order among surviving nodes is
// preserved, which is all deletion needs (paper §3.1: deletions do not
// disturb document order).
func (pp *PrePost) NodeDeleting(n *xmltree.Node) { pp.lab.Forget(n) }
