package containment

import (
	"errors"
	"fmt"
	"reflect"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/xmltree"
)

// IntervalConfig parameterises a begin/end interval labeling.
type IntervalConfig struct {
	// Name of the scheme (e.g. "xrel", "interval-gap16", "qed-range").
	Name string
	// Algebra supplies the ordered endpoint codes. Integer algebras give
	// the classic containment schemes; QED/vector algebras give the
	// orthogonal mountings of §5.1.
	Algebra labels.Algebra
	// WithLevel stores the nesting depth in the label, enabling the
	// parent-child evaluation (§3.1.1: "by incorporating the level
	// information ... this labelling scheme permits the evaluation of
	// the parent-child axis").
	WithLevel bool
	// LevelBits is the storage cost charged for the level field
	// (default 8 when WithLevel).
	LevelBits int
}

// IntervalLabel is a begin/end region label, optionally with level.
type IntervalLabel struct {
	Begin, End labels.Code
	Lvl        int
	withLevel  bool
	levelBits  int
}

// String renders "begin:end" (with level when present).
func (l IntervalLabel) String() string {
	if l.withLevel {
		return fmt.Sprintf("%s:%s@%d", l.Begin, l.End, l.Lvl)
	}
	return fmt.Sprintf("%s:%s", l.Begin, l.End)
}

// Bits implements labeling.Label.
func (l IntervalLabel) Bits() int {
	b := l.Begin.Bits() + l.End.Bits()
	if l.withLevel {
		b += l.levelBits
	}
	return b
}

// Interval is a containment labeling over an arbitrary code algebra.
type Interval struct {
	cfg   IntervalConfig
	doc   *xmltree.Document
	lab   map[*xmltree.Node]IntervalLabel
	stats labeling.Stats
}

// NewInterval returns an unbound interval labeling. With WithLevel set
// the returned labeling additionally implements labeling.ParentByLabel
// and labeling.LevelByLabel; without it, only the ancestor-descendant
// relationship is decidable from the labels (the Partial XPath grade of
// schemes like Sector and QRS).
func NewInterval(cfg IntervalConfig) labeling.Interface {
	if cfg.WithLevel && cfg.LevelBits == 0 {
		cfg.LevelBits = 8
	}
	iv := &Interval{cfg: cfg, lab: make(map[*xmltree.Node]IntervalLabel)}
	if cfg.WithLevel {
		return &LevelledInterval{Interval: iv}
	}
	return iv
}

// LevelledInterval is an interval labeling that stores levels, enabling
// the parent-child evaluation of §3.1.1.
type LevelledInterval struct {
	*Interval
}

// IsParent implements labeling.ParentByLabel.
func (li *LevelledInterval) IsParent(p, c labeling.Label) bool {
	lp, lc := p.(IntervalLabel), c.(IntervalLabel)
	return li.IsAncestor(p, c) && lp.Lvl == lc.Lvl-1
}

// Level implements labeling.LevelByLabel.
func (li *LevelledInterval) Level(l labeling.Label) (int, bool) {
	return l.(IntervalLabel).Lvl, true
}

// Name implements labeling.Interface.
func (iv *Interval) Name() string { return iv.cfg.Name }

// Stats implements labeling.Interface.
func (iv *Interval) Stats() *labeling.Stats { return &iv.stats }

// Algebra exposes the endpoint algebra (orthogonality probe).
func (iv *Interval) Algebra() labels.Algebra { return iv.cfg.Algebra }

// Build implements labeling.Interface: a depth-first traversal assigns
// each labellable node a begin code at first visit and an end code after
// its labellable descendants (paper §3.1.1: "each non-leaf node will be
// traversed twice").
func (iv *Interval) Build(doc *xmltree.Document) error {
	iv.doc = doc
	return iv.number(true)
}

// number asks the algebra for two endpoints a labellable node — first,
// so that a refusal leaves every label as it was — and hands them out
// over the table in place: a node whose label does not move is not
// written, one that had a label and gets another counts in Relabeled.
// fresh is Build's call: a new table, every node Assigned. Codes decide
// "moved"; only when both endpoints compare equal is the spelling looked
// at — one position can be spelt two ways, as a vector (2,4) for (1,2),
// and that is a changed label.
func (iv *Interval) number(fresh bool) error {
	n, alg := iv.doc.LabelledCount(), iv.cfg.Algebra
	codes, err := alg.Assign(2 * n) // a view of a shared row: read only
	if err != nil {
		return fmt.Errorf("interval %s: assign %d endpoints: %w", iv.cfg.Name, 2*n, err)
	}
	if fresh {
		iv.lab = make(map[*xmltree.Node]IntervalLabel, n)
		iv.stats = labeling.Stats{Assigned: int64(n)}
	}
	// The walk numbers endpoints as it meets them. A node opens behind
	// the pre nodes before it, all of which but its lvl ancestors have
	// closed too: endpoint 2·pre − lvl. It closes behind the post nodes
	// that closed before it and the pre + 1 + (post − pre + lvl) that
	// have opened — those before it, itself, its descendants: endpoint
	// 2·post + lvl + 1.
	ranks(iv.doc, func(x *xmltree.Node, pre, post, lvl int) {
		l := IntervalLabel{
			Begin: codes[2*pre-lvl], End: codes[2*post+lvl+1], Lvl: lvl,
			withLevel: iv.cfg.WithLevel, levelBits: iv.cfg.LevelBits,
		}
		if o, ok := iv.lab[x]; ok {
			if alg.Compare(o.Begin, l.Begin) == 0 && alg.Compare(o.End, l.End) == 0 &&
				sameSpelling(o.Begin, l.Begin) && sameSpelling(o.End, l.End) && (o.Lvl == lvl || !l.withLevel) {
				return
			}
			iv.stats.Relabeled++
		}
		iv.lab[x] = l
	})
	return nil
}

// sameSpelling reports whether two codes render alike: by == where the
// codes' type has one, by rendering them where it has not (a DLN or
// ORDPATH code holds a slice).
func sameSpelling(a, b labels.Code) bool {
	if reflect.ValueOf(a).Comparable() && reflect.ValueOf(b).Comparable() {
		return a == b
	}
	return a.String() == b.String()
}

// Label implements labeling.Interface.
func (iv *Interval) Label(n *xmltree.Node) labeling.Label {
	l, ok := iv.lab[n]
	if !ok {
		return nil
	}
	return l
}

// Compare implements labeling.Interface: document order is begin-code
// order (ancestors open their interval before descendants).
func (iv *Interval) Compare(a, b labeling.Label) int {
	return iv.cfg.Algebra.Compare(a.(IntervalLabel).Begin, b.(IntervalLabel).Begin)
}

// CompareNodes implements labeling.Interface: the label table holds
// whole labels, so it is a lookup of each and Compare.
func (iv *Interval) CompareNodes(a, b *xmltree.Node) (int, bool) {
	return labeling.CompareLabels(iv, a, b)
}

// IsAncestor implements labeling.AncestorByLabel: u.begin < v.begin and
// v.end < u.end — "the interval of u contains the interval of v".
func (iv *Interval) IsAncestor(a, d labeling.Label) bool {
	la, ld := a.(IntervalLabel), d.(IntervalLabel)
	return iv.cfg.Algebra.Compare(la.Begin, ld.Begin) < 0 &&
		iv.cfg.Algebra.Compare(ld.End, la.End) < 0
}

// NodeInserted implements labeling.Interface. The new node's interval is
// carved out of the free region between its labelled neighbours; if the
// algebra has no room the entire document is renumbered (containment
// schemes follow global order, so "a significant number of labels may
// need to be recomputed when a node is inserted" — §3.1.1).
func (iv *Interval) NodeInserted(n *xmltree.Node) error {
	if _, ok := iv.lab[n]; ok {
		// n is a later node of a subtree whose earlier node exhausted
		// a gap: the renumbering labelled every attached node, n with
		// them. Carving a second interval for n would ignore the ones
		// its descendants already hold.
		iv.stats.Assigned++
		return nil
	}
	lo, hi, err := iv.bounds(n)
	if err != nil {
		return err
	}
	begin, err1 := iv.cfg.Algebra.Between(lo, hi)
	var end labels.Code
	var err2 error
	if err1 == nil {
		end, err2 = iv.cfg.Algebra.Between(begin, hi)
	}
	if err1 == nil && err2 == nil {
		iv.lab[n] = IntervalLabel{
			Begin: begin, End: end, Lvl: n.Depth(),
			withLevel: iv.cfg.WithLevel, levelBits: iv.cfg.LevelBits,
		}
		iv.stats.Assigned++
		return nil
	}
	firstErr := err1
	if firstErr == nil {
		firstErr = err2
	}
	if errors.Is(firstErr, labels.ErrNeedRelabel) || errors.Is(firstErr, labels.ErrOverflow) {
		return iv.renumber(firstErr)
	}
	return fmt.Errorf("interval %s: insert: %w", iv.cfg.Name, firstErr)
}

// bounds computes the codes that the new node's interval must fit
// between: the end of the preceding labelled sibling (or the parent's
// begin) and the begin of the following labelled sibling (or the
// parent's end).
func (iv *Interval) bounds(n *xmltree.Node) (lo, hi labels.Code, err error) {
	parent := xmltree.LabelledParent(n)
	prev, next, ok := xmltree.LabelledSiblings(n)
	if !ok {
		return nil, nil, fmt.Errorf("interval %s: node %q not among siblings", iv.cfg.Name, n.Name())
	}
	if prev != nil {
		if l, ok := iv.lab[prev]; ok {
			lo = l.End
		}
	}
	if lo == nil && parent != nil {
		if l, ok := iv.lab[parent]; ok {
			lo = l.Begin
		}
	}
	if next != nil {
		if l, ok := iv.lab[next]; ok {
			hi = l.Begin
		}
	}
	if hi == nil && parent != nil {
		if l, ok := iv.lab[parent]; ok {
			hi = l.End
		}
	}
	return lo, hi, nil
}

// renumber numbers every interval again after an exhausted gap. If the
// algebra cannot supply the endpoints the attempt is counted and every
// label is what it was.
func (iv *Interval) renumber(cause error) error {
	iv.stats.RelabelEvents++
	if errors.Is(cause, labels.ErrOverflow) {
		iv.stats.OverflowEvents++
	}
	if err := iv.number(false); err != nil {
		iv.stats.OverflowEvents++
		return fmt.Errorf("interval %s: renumber: %w", iv.cfg.Name, err)
	}
	iv.stats.Assigned++ // the newly inserted node
	return nil
}

// NodeDeleting implements labeling.Interface. Intervals of surviving
// nodes keep their codes: deletion never disturbs containment order.
func (iv *Interval) NodeDeleting(n *xmltree.Node) {
	delete(iv.lab, n)
	for _, a := range n.Attributes() {
		delete(iv.lab, a)
	}
	for _, c := range n.Children() {
		if c.Kind() == xmltree.KindElement {
			iv.NodeDeleting(c)
		}
	}
}
