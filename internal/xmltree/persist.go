// Persistent structure-sharing versions: the path-copying machinery
// behind the repository's MVCC snapshots (docs/CONCURRENCY.md §7).
//
// Every live node carries a shadow pointer to its persistent
// counterpart in the last published version. Mutators invalidate the
// shadows on the path from the mutated node to the root (markChanged),
// so publication (PublishVersion) has to copy only that spine: every
// subtree whose root still has a valid shadow is shared, by pointer,
// with the previous version. A publication therefore allocates
// O(changed spine) nodes, not O(document).
//
// A document's first publication copies everything, and does it in one
// go: its nodes and lists are cut from one Slab, two allocations
// whatever the size. Later spines stay one allocation per node and per
// list, but for a copied list's never-published leaves (empty elements,
// text, attributes), which are cut from slabs of at most leafSlab. That
// split bounds what the mirror keeps: a first-version node still shared
// keeps its slab reachable, and that slab is one copy of the first
// version, never more; a spine node keeps only itself, and a leaf at
// most the 352 B of its slab, which points at nothing older, since a
// leaf has no list. Spines cut from slabs would let every old slab live
// on through its one still-shared node, and live heap grow with commit
// history (TestPublicationRetentionBounded).
//
// Persistent nodes are frozen and parentless — a subtree shared
// between two versions cannot have a per-version parent pointer. They
// support downward navigation and serialisation, but not the upward
// axes (Parent, Depth, Index, siblings, DocOrderCompare) that XPath
// results need. OpenVersion therefore wraps a version root in lazily
// materialised view nodes: frozen shells with correct parent pointers,
// built a sibling list at a time on first access and cached, so node
// identity within one version is stable no matter how many snapshots
// read it. A view node's parent is always materialised before the node
// itself exists, which keeps every upward walk allocation-free.
//
// The rule for readers: whole-subtree readers run on persistent nodes;
// shells exist for handed-out nodes and their ancestors. Descendants
// scans the persistent tree and materialises only the paths to its
// matches, and View.Capture materialises the same paths for nodes
// named by their live counterparts, descending by child positions
// instead of scanning; the readers that hand out no node at all
// (serialisation, Text, Attr, Clone) step from a view to its source
// first.
// A read of a version is thus O(visited) in time and O(selected ×
// depth) sibling lists in memory, like publication's O(spine).
package xmltree

import (
	"sync"
	"sync/atomic"
)

// markChanged invalidates the persistent shadows on the path from n up
// to its root. Invariant: a nil shadow implies every ancestor's shadow
// is nil too (a node cannot change without its ancestors' child lists
// or subtree content changing), so the walk stops at the first
// already-invalid node. On a document that has never been published
// every mutation pays exactly one nil check here. Mutators refuse frozen
// nodes before they get here, so the walk never meets a view, whose
// mirror is its source.
func (n *Node) markChanged() {
	for m := n; m != nil && m.mirror != nil; m = m.parent {
		m.mirror = nil
	}
}

// PublishVersion folds every change made since the previous publication
// into the document's persistent mirror and returns the new version
// root: a frozen, parentless tree in which all subtrees untouched since
// the last publication are shared, by pointer, with the version
// published then. seq is the caller's name for the version; the tree
// keeps no record of it, since sharing is pointer identity
// (Node.Source). Publishing an unchanged document returns the previous
// version root unchanged, without allocating.
//
// PublishVersion mutates the live tree's shadows, so it must be
// serialised with mutators and with other PublishVersion calls by the
// caller's locking; concurrent readers of the live tree are unaffected
// (they never read shadows).
func (d *Document) PublishVersion(seq uint64) *Node {
	var slab Slab
	if !d.published {
		d.published = true
		slab = NewSlab(unpublished(d.node))
	}
	return publishNode(d.node, &slab)
}

// unpublished counts the nodes under n that have no valid shadow, and
// the list entries they hold: what publishing n copies.
func unpublished(n *Node) (nodes, links int) {
	if n.mirror != nil {
		return 0, 0
	}
	nodes, links = 1, len(n.links)
	for _, c := range n.links {
		k, l := unpublished(c)
		nodes, links = nodes+k, links+l
	}
	return nodes, links
}

// leafSlab is the most never-published leaves of one list a later
// publication cuts from one slab: 4 × 88 B = 352 B is a size class, and
// a still-shared leaf keeps at most three others reachable.
const leafSlab = 4

// publishNode copies what changed under n, taking nodes and lists from
// slab while it lasts. After it, a copied list's unpublished leaves —
// nodes with no list: empty elements, text, attributes — are cut from
// slabs of at most leafSlab, the first holding what full slabs leave
// over, and every other node and list comes from the heap.
func publishNode(n *Node, slab *Slab) *Node {
	if n.mirror != nil {
		return n.mirror
	}
	p := slab.New(n.kind, n.name, n.value)
	p.frozen, p.nattrs = true, n.nattrs
	slab.Reserve(p, len(n.links))
	left := 0
	if len(slab.nodes) == 0 {
		for _, c := range n.links {
			if c.mirror == nil && len(c.links) == 0 {
				left++
			}
		}
	}
	leaves := NewSlab(left%leafSlab, 0)
	for _, c := range n.links {
		from := slab
		if left > 0 && c.mirror == nil && len(c.links) == 0 {
			if left%leafSlab == 0 {
				leaves = NewSlab(leafSlab, 0)
			}
			left--
			from = &leaves
		}
		p.links = append(p.links, publishNode(c, from))
	}
	n.mirror = p
	return p
}

// OpenVersion returns a read-only Document over a version root obtained
// from PublishVersion. The returned tree is frozen, navigable in both
// directions (view nodes carry real parent pointers) and safe for any
// number of concurrent readers with no lock held. View nodes are
// materialised lazily on first child/attribute access and cached, so
// repeated queries — and every snapshot pinning the same version — see
// the same *Node identities, and opening a version is O(1) regardless
// of document size. The Document and its document node's shell are one
// allocation, a View.
func OpenVersion(version *Node) *Document { return new(View).Open(version) }

// View is an opened version: its read-only Document, the shell of its
// document node and room for what the document node expands into when
// it has one child (its root element, with no comment or PI beside it):
// that child's shell and the one-entry list, so that expanding the first
// level allocates nothing. A holder that keeps more beside a version
// embeds a View and opens it in place, so that the view and the rest are
// one allocation.
type View struct {
	doc  Document
	root Node
	kid  Node
	kids [1]*Node
}

// Open points v at a version root from PublishVersion and returns its
// Document, as OpenVersion does. Open v once, before anyone reads it.
// The document node still expands on first access, as every view node
// does, into the room v holds for it.
func (v *View) Open(version *Node) *Document {
	v.root = viewOf(version, nil)
	if len(version.links) == 1 {
		v.kids[0] = &v.kid
		v.root.links = v.kids[:0]
	}
	v.doc.node = &v.root
	return &v.doc
}

// Capture returns the nodes of the view that stand where the nodes of
// live stand in the live document v was published from, in the same
// order. live must be in document order and its document unchanged since
// PublishVersion returned v's root, so that a live node's child
// positions lead to its view. The descent keeps one cursor per level, so
// a sibling list is scanned once however many of live it leads to, and
// examined counts the siblings the cursors compare. ok is false where a
// node is not found where the order puts it.
func (v *View) Capture(live []*Node, examined *int) (nodes []*Node, ok bool) {
	var d descent
	d.levels.at(0).view = &v.root
	defer func() { *examined += d.examined }()
	nodes = make([]*Node, len(live))
	for i, n := range live {
		if nodes[i], _ = d.find(n); nodes[i] == nil {
			return nil, false
		}
	}
	return nodes, true
}

// cursor is one level of a capture's descent: the live node last reached
// there, its view, and where the scan of its children resumes.
type cursor struct {
	live, view *Node
	next       int
}

// descent is one Capture: its levels run from the document node, at
// depth 0, down to the node last reached.
type descent struct {
	levels   chain[cursor]
	examined int
}

// find returns the view of live node n and n's depth, or nil where n's
// parent holds it before its cursor.
func (d *descent) find(n *Node) (*Node, int) {
	if n.parent == nil {
		top := d.levels.at(0)
		top.live = n
		return top.view, 0
	}
	pv, at := d.find(n.parent)
	if pv == nil {
		return nil, 0
	}
	at++
	c := d.levels.at(at) // before the parent's: it may move the spill
	if c.live != n {
		p := d.levels.at(at - 1)
		kids, i := p.live.children(), p.next
		for i < len(kids) && kids[i] != n {
			i++
		}
		d.examined += i - p.next + 1
		if i == len(kids) {
			return nil, 0
		}
		p.next = i + 1
		*c = cursor{live: n, view: pv.children()[i]}
	}
	return c.view, at
}

// Document returns the Document of a View that Open has opened.
func (v *View) Document() *Document { return &v.doc }

// viewOf returns the shell of src under parent, children unexpanded.
func viewOf(src, parent *Node) Node {
	return Node{
		kind:   src.kind,
		frozen: true,
		view:   true,
		name:   src.name,
		value:  src.value,
		parent: parent,
		mirror: src,
	}
}

// expandMu serialises first-time materialisation of view-node child
// lists. It is global rather than per-version: the critical section is
// two allocations, each node expands at most once per version, and the
// expanded fast path (an atomic load) never takes it.
var expandMu sync.Mutex

// expand materialises the attribute and child shells of a view node, as
// one slab of shells behind one list of pointers, or into the room a
// View holds for its document node's one child. Publication order
// guarantees the source node is immutable by the time any reader can
// reach it, so expansion only needs to synchronise with other
// expansions: the atomic expanded flag is written after the list and
// its attribute count (release) and checked before reading them
// (acquire).
func (n *Node) expand() {
	if atomic.LoadUint32(&n.expanded) != 0 {
		return
	}
	expandMu.Lock()
	defer expandMu.Unlock()
	if atomic.LoadUint32(&n.expanded) != 0 {
		return
	}
	switch src := n.mirror; {
	case len(src.links) == 1 && cap(n.links) == 1:
		// View.Open's room: the list and the shell are the View's.
		n.links = n.links[:1]
		*n.links[0] = viewOf(src.links[0], n)
		n.nattrs = src.nattrs
	case len(src.links) > 0:
		shells := make([]Node, len(src.links))
		list := make([]*Node, len(src.links))
		for i, c := range src.links {
			shells[i] = viewOf(c, n)
			list[i] = &shells[i]
		}
		n.links, n.nattrs = list, src.nattrs
	}
	atomic.StoreUint32(&n.expanded, 1)
}

// Source returns the node a reader of n's whole subtree should walk.
// For a version view that is the persistent node behind it — frozen,
// parentless and shared between versions, so good for downward
// navigation only, and walking it materialises no shell. Any other
// node is its own source.
func (n *Node) Source() *Node {
	if n.view {
		return n.mirror
	}
	return n
}

// Descendants returns, in document order, the labellable proper
// descendants of ctx — its attributes, its element descendants and
// their attributes — that match accepts. On a version view the scan
// runs over the persistent tree and materialises shells only on the
// paths to its matches, so match is handed persistent nodes there: it
// may inspect a node and what lies below it, but not navigate upwards
// from it or keep it. The nodes returned belong to ctx's tree: for a
// view they are view nodes, with parents and the version's stable
// identity; any other tree is its own source, scanned the same way.
func Descendants(ctx *Node, match func(*Node) bool) []*Node {
	s := scan{ready: 1}
	s.chain.at(0).view = ctx
	s.walk(ctx.Source(), 0, match)
	if s.n > scanAnswer {
		return s.more
	}
	return append([]*Node(nil), s.buf[:s.n]...)
}

// scanDepth is how deep a chain runs inside its holder; a deeper
// document spills the rest of it to the heap.
const scanDepth = 128

// chain is per-level state of a descent from depth 0: the first
// scanDepth levels inside its holder, so a holder on its caller's stack
// keeps them there, and the rest on the heap.
type chain[T any] struct {
	head  [scanDepth]T
	spill []T // the levels at scanDepth and below
}

// at returns the level at depth, which is at most one below the deepest
// level so far. A level past scanDepth may move when a deeper one is
// first reached.
func (c *chain[T]) at(depth int) *T {
	if depth < scanDepth {
		return &c.head[depth]
	}
	if depth -= scanDepth; depth == len(c.spill) {
		var zero T
		c.spill = append(c.spill, zero)
	}
	return &c.spill[depth]
}

// scanAnswer is how many matches a scan holds inside itself. A smaller
// answer leaves in one copy, or as nil; a larger one moves to the heap
// once, at twice this, and grows there as an append from nil would.
const scanAnswer = 64

// link is one node of a scan's chain: its position among its parent's
// non-attribute children, and the node to hand out for it.
type link struct {
	index int
	view  *Node
}

// scan is one Descendants call. Its chain runs from ctx, at depth 0,
// down to the element being visited. The views of the chain's first
// ready links are set — the part some match has needed so far — and
// the rest are materialised when the next match needs them, so one
// prefix serves every match below it. The chain is held in the scan,
// not behind a slice, so a scan on its caller's stack keeps it there;
// so is the answer while it fits in buf. The answer is counted, not a
// slice of buf, because a scan that points into itself escapes.
type scan struct {
	n     int     // matches so far: in buf, or all in more past scanAnswer
	more  []*Node // the answer once it outgrew buf
	buf   [scanAnswer]*Node
	ready int
	chain chain[link]
}

// add appends n to the answer.
func (s *scan) add(n *Node) {
	if s.n < scanAnswer {
		s.buf[s.n] = n
	} else {
		if s.n == scanAnswer {
			s.more = append(make([]*Node, 0, 2*scanAnswer), s.buf[:]...)
		}
		s.more = append(s.more, n)
	}
	s.n++
}

// walk scans below p, the chain's node at depth.
func (s *scan) walk(p *Node, depth int, match func(*Node) bool) {
	for i, a := range p.attributes() {
		if match(a) {
			s.add(s.view(depth).attributes()[i])
		}
	}
	d := depth + 1
	l := s.chain.at(d)
	for i, c := range p.children() {
		if c.kind != KindElement {
			continue
		}
		l.index = i
		if s.ready > d {
			s.ready = d
		}
		if match(c) {
			s.add(s.view(d))
		}
		if len(c.links) > 0 {
			s.walk(c, d, match)
			l = s.chain.at(d) // the walk below may have moved the spill
		}
	}
}

// view returns the node to hand out for the chain's node at depth.
func (s *scan) view(depth int) *Node {
	for ; s.ready <= depth; s.ready++ {
		l := s.chain.at(s.ready)
		l.view = s.chain.at(s.ready - 1).view.children()[l.index]
	}
	return s.chain.at(depth).view
}

// list returns the attributes and then the non-attribute children,
// materialising view shells on demand. Every in-package read of n.links
// on a node that may be a version view goes through here, children or
// attributes; live and persistent nodes take the one-branch fast path.
func (n *Node) list() []*Node {
	if n.view {
		n.expand()
	}
	return n.links
}

// children returns the non-attribute children.
func (n *Node) children() []*Node {
	l := n.list() // before n.nattrs: expanding a view sets it
	return l[n.nattrs:]
}

// attributes returns the attributes, with no room to append into the
// children's places.
func (n *Node) attributes() []*Node {
	l := n.list()
	return l[:n.nattrs:n.nattrs]
}
