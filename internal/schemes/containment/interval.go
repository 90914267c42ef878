package containment

import (
	"errors"
	"fmt"

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
	n := doc.LabelledCount()
	codes, err := iv.cfg.Algebra.Assign(2 * n)
	if err != nil {
		return fmt.Errorf("interval %s: assign %d endpoints: %w", iv.cfg.Name, 2*n, err)
	}
	iv.lab = make(map[*xmltree.Node]IntervalLabel, n)
	iv.stats.Reset()
	i := 0
	var walk func(x *xmltree.Node)
	walk = func(x *xmltree.Node) {
		labelled := x.Kind() == xmltree.KindElement || x.Kind() == xmltree.KindAttribute
		var begin labels.Code
		if labelled {
			begin = codes[i]
			i++
		}
		for _, a := range x.Attributes() {
			walk(a)
		}
		for _, c := range x.Children() {
			walk(c)
		}
		if labelled {
			end := codes[i]
			i++
			iv.lab[x] = IntervalLabel{
				Begin: begin, End: end, Lvl: x.Depth(),
				withLevel: iv.cfg.WithLevel, levelBits: iv.cfg.LevelBits,
			}
			iv.stats.Assigned++
		}
	}
	walk(doc.Node())
	return nil
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

// renumber rebuilds every interval after an exhausted gap, counting the
// relabelled nodes.
func (iv *Interval) renumber(cause error) error {
	saved := iv.stats
	saved.RelabelEvents++
	if errors.Is(cause, labels.ErrOverflow) {
		saved.OverflowEvents++
	}
	old := iv.lab
	if err := iv.Build(iv.doc); err != nil {
		saved.OverflowEvents++
		iv.stats = saved
		return fmt.Errorf("interval %s: renumber: %w", iv.cfg.Name, err)
	}
	// Build reset the stats; restore the cumulative view.
	relabelled := int64(0)
	for n, l := range iv.lab {
		if o, ok := old[n]; ok && o.String() != l.String() {
			relabelled++
		}
	}
	saved.Assigned++ // the newly inserted node
	saved.Relabeled += relabelled
	iv.stats = saved
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
