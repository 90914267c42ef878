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
// matches; the readers that hand out no node at all (serialisation,
// Text, DeepText, Attr, Clone) step from a view to its source first.
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
// every mutation pays exactly one nil check here.
func (n *Node) markChanged() {
	for m := n; m != nil && m.shadow != nil; m = m.parent {
		m.shadow = nil
	}
}

// PublishVersion folds every change made since the previous publication
// into the document's persistent mirror and returns the new version
// root: a frozen, parentless tree in which all subtrees untouched since
// the last publication are shared, by pointer, with the version
// published then. Rebuilt nodes are stamped with the birth sequence
// seq. Publishing an unchanged document returns the previous version
// root unchanged, without allocating.
//
// PublishVersion mutates the live tree's bookkeeping fields (shadows
// and birth sequences), so it must be serialised with mutators and
// with other PublishVersion calls by the caller's locking; concurrent
// readers of the live tree are unaffected (they never read shadows).
func (d *Document) PublishVersion(seq uint64) *Node {
	return publishNode(d.node, seq)
}

func publishNode(n *Node, seq uint64) *Node {
	if n.shadow != nil {
		return n.shadow
	}
	p := &Node{kind: n.kind, frozen: true, name: n.name, value: n.value, birth: seq}
	if len(n.attrs) > 0 {
		p.attrs = make([]*Node, len(n.attrs))
		for i, a := range n.attrs {
			p.attrs[i] = publishNode(a, seq)
		}
	}
	if len(n.kids) > 0 {
		p.kids = make([]*Node, len(n.kids))
		for i, c := range n.kids {
			p.kids[i] = publishNode(c, seq)
		}
	}
	n.birth = seq
	n.shadow = p
	return p
}

// OpenVersion returns a read-only Document over a version root obtained
// from PublishVersion. The returned tree is frozen, navigable in both
// directions (view nodes carry real parent pointers) and safe for any
// number of concurrent readers with no lock held. View nodes are
// materialised lazily on first child/attribute access and cached, so
// repeated queries — and every snapshot pinning the same version — see
// the same *Node identities, and opening a version is O(1) regardless
// of document size.
func OpenVersion(version *Node) *Document {
	root := viewOf(version, nil)
	return &Document{node: &root}
}

// viewOf returns the shell of src under parent, children unexpanded.
func viewOf(src, parent *Node) Node {
	return Node{
		kind:   src.kind,
		frozen: true,
		name:   src.name,
		value:  src.value,
		parent: parent,
		birth:  src.birth,
		src:    src,
	}
}

// expandMu serialises first-time materialisation of view-node child
// lists. It is global rather than per-version: the critical section is
// two allocations, each node expands at most once per version, and the
// expanded fast path (an atomic load) never takes it.
var expandMu sync.Mutex

// expand materialises the child and attribute shells of a view node,
// as one slab of shells behind one list of pointers. Publication order
// guarantees the source node is immutable by the time any reader can
// reach it, so expansion only needs to synchronise with other
// expansions: the atomic expanded flag is written after the child
// lists (release) and checked before reading them (acquire).
func (n *Node) expand() {
	if atomic.LoadUint32(&n.expanded) != 0 {
		return
	}
	expandMu.Lock()
	defer expandMu.Unlock()
	if atomic.LoadUint32(&n.expanded) != 0 {
		return
	}
	src := n.src
	na := len(src.attrs)
	if total := na + len(src.kids); total > 0 {
		shells := make([]Node, total)
		list := make([]*Node, total)
		for i, a := range src.attrs {
			shells[i] = viewOf(a, n)
		}
		for i, c := range src.kids {
			shells[na+i] = viewOf(c, n)
		}
		for i := range shells {
			list[i] = &shells[i]
		}
		n.attrs, n.kids = list[:na:na], list[na:]
	}
	atomic.StoreUint32(&n.expanded, 1)
}

// Source returns the node a reader of n's whole subtree should walk.
// For a version view that is the persistent node behind it — frozen,
// parentless and shared between versions, so good for downward
// navigation only, and walking it materialises no shell. Any other
// node is its own source.
func (n *Node) Source() *Node {
	if n.src != nil {
		return n.src
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
	s := scan{match: match, index: make([]int, 16), views: make([]*Node, 16), ready: 1}
	s.views[0] = ctx
	s.walk(ctx.Source(), 0)
	return s.out
}

// scan is one Descendants call. index and views describe the chain
// from ctx down to the element being visited: index[d] is the position
// of the chain's d-th node among its parent's non-attribute children,
// and views[:ready] are the nodes to hand out for the part of the chain
// some match has needed so far — the rest is materialised when the next
// match needs it, so one prefix serves every match below it.
type scan struct {
	match func(*Node) bool
	out   []*Node
	index []int
	views []*Node
	ready int
}

// walk scans below p, the chain's node at depth.
func (s *scan) walk(p *Node, depth int) {
	for i, a := range p.attrs {
		if s.match(a) {
			s.out = append(s.out, s.view(depth).attributes()[i])
		}
	}
	d := depth + 1
	if d == len(s.index) {
		s.index, s.views = append(s.index, 0), append(s.views, nil)
	}
	for i, c := range p.kids {
		if c.kind != KindElement {
			continue
		}
		s.index[d] = i
		if s.ready > d {
			s.ready = d
		}
		if s.match(c) {
			s.out = append(s.out, s.view(d))
		}
		if len(c.kids) > 0 || len(c.attrs) > 0 {
			s.walk(c, d)
		}
	}
}

// view returns the node to hand out for the chain's node at depth.
func (s *scan) view(depth int) *Node {
	for ; s.ready <= depth; s.ready++ {
		s.views[s.ready] = s.views[s.ready-1].children()[s.index[s.ready]]
	}
	return s.views[depth]
}

// children returns the non-attribute child list, materialising view
// shells on demand. Every in-package read of n.kids on a node that may
// be a version view goes through here; live and persistent nodes take
// the one-branch fast path.
func (n *Node) children() []*Node {
	if n.src != nil {
		n.expand()
	}
	return n.kids
}

// attributes is the attribute-list counterpart of children.
func (n *Node) attributes() []*Node {
	if n.src != nil {
		n.expand()
	}
	return n.attrs
}

// BirthSeq returns the version sequence at which the node's current
// state was last published, or 0 for a node that predates the first
// publication. Two versions share a subtree exactly when the subtree
// root's birth sequence predates the younger version — tests use this
// to assert structure sharing.
func (n *Node) BirthSeq() uint64 { return n.birth }
