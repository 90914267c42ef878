// Package prefix implements the generic prefix labelling mechanism of the
// paper's §3.1.2: a node's label is its parent's label extended with a
// positional identifier drawn from a pluggable code algebra. DeweyID,
// ORDPATH, DLN, LSDX, ImprovedBinary, QED, CDBS, CDQS and the vector
// scheme are all prefix labelings over different algebras; this package
// provides the shared path bookkeeping, relabelling policy and the
// ancestor/parent/sibling/level evaluations that prefix labels support
// from the label value alone.
package prefix

import (
	"cmp"
	"errors"
	"fmt"
	"strings"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/xmltree"
)

// Config parameterises a prefix labeling.
type Config struct {
	// Name is the scheme name shown in figures and stats.
	Name string
	// Algebra supplies positional identifiers for each sibling list.
	Algebra labels.Algebra
	// Render formats a full path; nil joins code strings with ".".
	Render func(codes []labels.Code) string
	// ExtraBitsPerLevel accounts for per-component framing (separators
	// or length fields) not already included in Code.Bits.
	ExtraBitsPerLevel int
	// RootCode, when set, is the root element's positional identifier,
	// overriding the algebra's bulk assignment for the document's
	// single root (LSDX labels the root "a" but first children "b").
	RootCode labels.Code
}

// Labeling is a prefix labeling bound to a document.
type Labeling struct {
	cfg   Config
	doc   *xmltree.Document
	codes map[*xmltree.Node]labels.Code // own positional identifier
	stats labeling.Stats
}

// New returns an unbound prefix labeling.
func New(cfg Config) *Labeling {
	return &Labeling{cfg: cfg, codes: make(map[*xmltree.Node]labels.Code)}
}

// Name implements labeling.Interface.
func (pl *Labeling) Name() string { return pl.cfg.Name }

// Stats implements labeling.Interface.
func (pl *Labeling) Stats() *labeling.Stats { return &pl.stats }

// Algebra exposes the underlying code algebra (used by the framework's
// orthogonality probe).
func (pl *Labeling) Algebra() labels.Algebra { return pl.cfg.Algebra }

// Build implements labeling.Interface: every sibling list receives a bulk
// code assignment from the algebra, top-down.
func (pl *Labeling) Build(doc *xmltree.Document) error {
	pl.doc = doc
	pl.codes = make(map[*xmltree.Node]labels.Code, doc.LabelledCount())
	pl.stats.Reset()
	return pl.assignChildren(doc.Node())
}

func (pl *Labeling) assignChildren(parent *xmltree.Node) error {
	n := xmltree.LabelledChildCount(parent)
	if n == 0 {
		return nil
	}
	var cs []labels.Code
	var err error
	if parent.Kind() == xmltree.KindDocument && pl.cfg.RootCode != nil && n == 1 {
		cs = []labels.Code{pl.cfg.RootCode}
	} else {
		cs, err = pl.cfg.Algebra.Assign(n)
	}
	if err != nil {
		return fmt.Errorf("prefix %s: bulk assign %d: %w", pl.cfg.Name, n, err)
	}
	for i, k := range xmltree.LabelledChildren(parent) {
		pl.codes[k] = cs[i]
		pl.stats.Assigned++
		if err := pl.assignChildren(k); err != nil {
			return err
		}
	}
	return nil
}

// Path is the label of a node under a prefix labeling: the sequence of
// positional identifiers from the root element down to the node.
type Path struct {
	codes []labels.Code
	cfg   *Config
}

// String renders the path using the scheme's renderer. The default
// renderer joins component strings with dots, skipping empty components
// (ImprovedBinary assigns the root the empty string).
func (p Path) String() string {
	if p.cfg.Render != nil {
		return p.cfg.Render(p.codes)
	}
	parts := make([]string, 0, len(p.codes))
	for _, c := range p.codes {
		if s := c.String(); s != "" {
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, ".")
}

// Bits implements labeling.Label.
func (p Path) Bits() int {
	total := 0
	for _, c := range p.codes {
		total += c.Bits()
	}
	return total + p.cfg.ExtraBitsPerLevel*len(p.codes)
}

// Len returns the number of path components (level + 1).
func (p Path) Len() int { return len(p.codes) }

// Code returns the i-th positional identifier.
func (p Path) Code(i int) labels.Code { return p.codes[i] }

// Label implements labeling.Interface. Two allocations: the depth is
// counted first and the path filled from the back into one slice, then
// the Path is boxed.
func (pl *Labeling) Label(n *xmltree.Node) labeling.Label {
	depth := n.Depth() + 1
	codes := make([]labels.Code, depth)
	for x := n; x != nil; x = xmltree.LabelledParent(x) {
		c, ok := pl.codes[x]
		if !ok {
			return nil
		}
		depth--
		codes[depth] = c
	}
	return Path{codes: codes, cfg: &pl.cfg}
}

// Compare implements labeling.Interface: component-wise algebra order
// with an ancestor (proper path prefix) ordered before its descendants.
func (pl *Labeling) Compare(a, b labeling.Label) int {
	pa, pb := a.(Path), b.(Path)
	n := len(pa.codes)
	if len(pb.codes) < n {
		n = len(pb.codes)
	}
	for i := 0; i < n; i++ {
		if c := pl.cfg.Algebra.Compare(pa.codes[i], pb.codes[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(pa.codes) < len(pb.codes):
		return -1
	case len(pa.codes) > len(pb.codes):
		return 1
	default:
		return 0
	}
}

// CompareNodes implements labeling.Interface on the tree, building no
// path. Two paths share the components of the nodes' common ancestors
// and first differ at the pair of siblings below the lowest of them, so
// comparing that pair's codes is comparing the paths; if one node is an
// ancestor of the other (or the node itself) the shorter path is a
// prefix and orders first. Both are what Compare does on the
// materialised paths. ok is false when a node on either chain carries
// no code (Label is nil then) or the sibling pair ties (an LSDX
// collision: Compare goes on to the components below it).
func (pl *Labeling) CompareNodes(a, b *xmltree.Node) (int, bool) {
	da, db := a.Depth(), b.Depth()
	// Climb to equal depth, then in lockstep until the chains meet; cx
	// and cy end as the codes of the sibling pair below the meeting point.
	x, y := a, b
	for d := da; d > db; d-- {
		if _, ok := pl.codes[x]; !ok {
			return 0, false
		}
		x = xmltree.LabelledParent(x)
	}
	for d := db; d > da; d-- {
		if _, ok := pl.codes[y]; !ok {
			return 0, false
		}
		y = xmltree.LabelledParent(y)
	}
	var cx, cy labels.Code
	forked := x != y
	for x != y {
		var okx, oky bool
		if cx, okx = pl.codes[x]; !okx {
			return 0, false
		}
		if cy, oky = pl.codes[y]; !oky {
			return 0, false
		}
		x, y = xmltree.LabelledParent(x), xmltree.LabelledParent(y)
	}
	for ; x != nil; x = xmltree.LabelledParent(x) {
		if _, ok := pl.codes[x]; !ok {
			return 0, false
		}
	}
	if !forked {
		return cmp.Compare(da, db), true
	}
	c := pl.cfg.Algebra.Compare(cx, cy)
	return c, c != 0
}

// IsAncestor implements labeling.AncestorByLabel: label(a) is a proper
// prefix of label(d) (paper §3.1.2).
func (pl *Labeling) IsAncestor(a, d labeling.Label) bool {
	pa, pd := a.(Path), d.(Path)
	if len(pa.codes) >= len(pd.codes) {
		return false
	}
	for i := range pa.codes {
		if pl.cfg.Algebra.Compare(pa.codes[i], pd.codes[i]) != 0 {
			return false
		}
	}
	return true
}

// IsParent implements labeling.ParentByLabel.
func (pl *Labeling) IsParent(p, c labeling.Label) bool {
	pp, pc := p.(Path), c.(Path)
	return len(pp.codes)+1 == len(pc.codes) && pl.IsAncestor(p, c)
}

// IsSibling implements labeling.SiblingByLabel: equal-length paths that
// agree on every component except the last.
func (pl *Labeling) IsSibling(a, b labeling.Label) bool {
	pa, pb := a.(Path), b.(Path)
	if len(pa.codes) != len(pb.codes) || len(pa.codes) == 0 {
		return false
	}
	for i := 0; i < len(pa.codes)-1; i++ {
		if pl.cfg.Algebra.Compare(pa.codes[i], pb.codes[i]) != 0 {
			return false
		}
	}
	return pl.cfg.Algebra.Compare(pa.codes[len(pa.codes)-1], pb.codes[len(pb.codes)-1]) != 0
}

// Level implements labeling.LevelByLabel: the component count determines
// depth (root element is level 0).
func (pl *Labeling) Level(l labeling.Label) (int, bool) {
	return len(l.(Path).codes) - 1, true
}

// NodeInserted implements labeling.Interface. The new node is already
// attached; its position among the labellable siblings determines the
// left/right bounds passed to the algebra. If the algebra cannot insert
// without disturbing neighbours (ErrNeedRelabel or ErrOverflow), the
// whole sibling list is reassigned and every node whose label changes —
// including descendants, whose paths embed the changed component — is
// counted as relabelled.
func (pl *Labeling) NodeInserted(n *xmltree.Node) error {
	prev, next, ok := xmltree.LabelledSiblings(n)
	if !ok {
		return fmt.Errorf("prefix %s: inserted node %q not found among siblings", pl.cfg.Name, n.Name())
	}
	var left, right labels.Code
	if prev != nil {
		left = pl.codes[prev]
	}
	if next != nil {
		right = pl.codes[next]
	}
	code, err := pl.cfg.Algebra.Between(left, right)
	switch {
	case err == nil:
		pl.codes[n] = code
		pl.stats.Assigned++
		return nil
	case isRelabelErr(err):
		return pl.relabelSiblings(n.Parent(), n, err)
	default:
		return fmt.Errorf("prefix %s: insert: %w", pl.cfg.Name, err)
	}
}

func isRelabelErr(err error) bool {
	return errors.Is(err, labels.ErrNeedRelabel) || errors.Is(err, labels.ErrOverflow)
}

// relabelSiblings reassigns the whole sibling list after an insertion the
// algebra could not absorb.
func (pl *Labeling) relabelSiblings(parent, inserted *xmltree.Node, cause error) error {
	pl.stats.RelabelEvents++
	if errors.Is(cause, labels.ErrOverflow) {
		pl.stats.OverflowEvents++
	}
	n := xmltree.LabelledChildCount(parent)
	cs, err := pl.cfg.Algebra.Assign(n)
	if err != nil {
		pl.stats.OverflowEvents++
		return fmt.Errorf("prefix %s: relabel of %d siblings failed: %w", pl.cfg.Name, n, err)
	}
	// cs is a view of a shared row: read, and written nowhere. A sibling
	// whose code compares equal keeps it — under skewed insertion, every
	// one before the insertion point.
	for i, s := range xmltree.LabelledChildren(parent) {
		old, had := pl.codes[s]
		switch {
		case s == inserted || !had:
			pl.stats.Assigned++
		case pl.cfg.Algebra.Compare(old, cs[i]) == 0:
			continue
		default:
			// The sibling's own component changed: the sibling and every
			// labelled descendant carry a new label.
			pl.stats.Relabeled += int64(countLabelled(s))
		}
		pl.codes[s] = cs[i]
	}
	return nil
}

func countLabelled(n *xmltree.Node) int {
	count := 1 + len(n.Attributes())
	for _, c := range n.Children() {
		if c.Kind() == xmltree.KindElement {
			count += countLabelled(c)
		}
	}
	return count
}

// NodeDeleting implements labeling.Interface: forget the subtree's codes.
func (pl *Labeling) NodeDeleting(n *xmltree.Node) {
	delete(pl.codes, n)
	for _, a := range n.Attributes() {
		delete(pl.codes, a)
	}
	for _, c := range n.Children() {
		if c.Kind() == xmltree.KindElement {
			pl.NodeDeleting(c)
		}
	}
}
