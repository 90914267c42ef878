package xpath

// The element index: a document's elements by name, each name's list
// in document order. A deep element step by name reads a list — all of
// it from the document node, the run inside the context's subtree from
// an element, found by two binary searches — instead of walking every
// node below the context. A list is ordered, and searched, by the tree
// (xmltree.DocOrderCompare), the order the structural engine answers
// in, not by labels: a scheme that can give two nodes one label (lsdx,
// com-d) and a published version, which has no labels, are read from
// their lists as every other document is. Wildcard and attribute steps,
// and engines without an index (label-only mode), keep walking.

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"xmldyn/internal/xmltree"
)

// Index holds, for each element name that has been read, that name's
// elements of one document in document order. The first read of a name
// builds its list with one walk and keeps it, empty or not, so every
// later read of the name, found or absent, is handed the list. At most
// maxNames lists are held: a name read past that drops the others, so a
// reader of many names costs each commit and each Verify no more than
// maxNames lists do. The zero value is an empty index. The index of a
// published version needs nothing more, since a version never changes.
// That of a live document is kept current by the document's owner,
// calling Inserted, Deleting and Renamed wherever it tells the
// labelling of a change, and Drop where it cannot say what changed.
// The tree places an entry, so the lists hold for every scheme; Verify
// checks them against a walk.
//
// A read holds mu while it looks its name up, builds a missing list and
// hands it out, so readers of the document may read at once. The
// maintenance methods run with the document held exclusively, so they
// take no lock. A list a reader is handed is capacity-limited, so an
// append copies it; nobody may write into it. The first name's entry is
// held inside the index, so an index of one name allocates only its
// list.
type Index struct {
	mu    sync.Mutex
	lists []named
	first [1]named // lists' array until a second name is held
}

// named is one name's list: its elements in document order.
type named struct {
	name  string
	nodes []*xmltree.Node
}

// maxNames bounds the lists an index holds.
const maxNames = 16

// Indexed returns a structural engine over doc, the document x
// indexes, that answers deep element steps by name from x.
func Indexed(doc *xmltree.Document, x *Index) *Engine {
	return &Engine{doc: doc, mode: ModeStructural, index: x}
}

// byName answers a deep element step by name from ctx out of the
// index: the whole list from the document node, the run of the list
// inside ctx's subtree from an element, which two searches find. ok is
// false where the step walks instead.
func (e *Engine) byName(ctx *xmltree.Node, st step) (nodes []*xmltree.Node, ok bool) {
	kind := ctx.Kind()
	if e.index == nil || st.attribute || st.name == "*" || (kind != xmltree.KindDocument && kind != xmltree.KindElement) {
		return nil, false
	}
	l := e.index.list(e.doc.Node(), st.name, &e.examined)
	if kind == xmltree.KindElement {
		lo, hi := e.search(l, ctx), len(l)
		if lo < hi && l[lo] == ctx {
			lo++
		}
		if after := xmltree.NextLabelledAfter(ctx); after != nil {
			hi = lo + e.search(l[lo:], after)
		}
		l = l[lo:hi:hi]
	}
	e.examined += len(l)
	return l, true
}

// search is the index's binary search, counted among the nodes the
// engine examined.
func (e *Engine) search(list []*xmltree.Node, n *xmltree.Node) int {
	i, probes := search(list, n)
	e.examined += probes
	return i
}

// list returns the elements named name below top, the document node, in
// document order, building the list where the index holds none.
func (x *Index) list(top *xmltree.Node, name string, examined *int) []*xmltree.Node {
	x.mu.Lock()
	defer x.mu.Unlock()
	l := x.find(name)
	if l == nil {
		l = x.hold(name, xmltree.Descendants(top, func(n *xmltree.Node) bool {
			*examined++
			return n.Kind() == xmltree.KindElement && n.Name() == name
		}))
	}
	return l.nodes[:len(l.nodes):len(l.nodes)]
}

// hold keeps nodes as name's list, dropping the others if the index
// holds maxNames already.
func (x *Index) hold(name string, nodes []*xmltree.Node) *named {
	if len(x.lists) == maxNames {
		x.Drop()
	}
	if x.lists == nil {
		x.lists = x.first[:0]
	}
	grown := append(x.lists, named{name, nodes})
	if len(x.lists) > 0 && &grown[0] != &x.lists[0] {
		clear(x.lists) // the array left behind keeps no list
	}
	x.lists = grown
	return &x.lists[len(x.lists)-1]
}

// Capture gives x, the empty index of a version just published from the
// document live indexes, each of live's lists, as the version's nodes
// (xmltree.View.Capture): the version's first read of a name live holds
// is handed its list, with no walk. Call it before anyone reads the
// version, with the live document's writers held off and unchanged since
// the publication. It returns the nodes the capture examined. A list the
// view does not match is left to the version's first read.
func (x *Index) Capture(live *Index, version *xmltree.View) (examined int) {
	live.mu.Lock()
	defer live.mu.Unlock()
	for _, l := range live.lists {
		if nodes, ok := version.Capture(l.nodes, &examined); ok {
			x.hold(l.name, nodes)
		}
	}
	return examined
}

// find returns the list held for name, or nil: a scan of at most
// maxNames names.
func (x *Index) find(name string) *named {
	for i := range x.lists {
		if x.lists[i].name == name {
			return &x.lists[i]
		}
	}
	return nil
}

// Inserted adds the elements of the subtree at root, just attached, to
// the lists held for their names.
func (x *Index) Inserted(root *xmltree.Node) {
	if len(x.lists) == 0 {
		return
	}
	root.WalkLabelled(func(n *xmltree.Node) bool {
		x.add(n)
		return true
	})
}

// add puts n into its name's list, if the index holds one.
func (x *Index) add(n *xmltree.Node) {
	if l := x.find(n.Name()); l != nil && n.Kind() == xmltree.KindElement {
		i, _ := search(l.nodes, n)
		l.nodes = slices.Insert(l.nodes, i, n)
	}
}

// Deleting drops the elements of the subtree at root from every list.
// Call it while the subtree is still attached: its elements are the run
// of each list from root up to the labellable node after the subtree.
func (x *Index) Deleting(root *xmltree.Node) {
	if len(x.lists) == 0 || root.Kind() != xmltree.KindElement {
		return
	}
	after := xmltree.NextLabelledAfter(root)
	for i := range x.lists {
		l := &x.lists[i]
		lo, _ := search(l.nodes, root)
		hi := len(l.nodes)
		if after != nil {
			hi, _ = search(l.nodes, after)
		}
		if lo < hi {
			l.nodes = slices.Delete(l.nodes, lo, hi)
		}
	}
}

// Renamed moves n, just renamed from old, from old's list to its new
// name's.
func (x *Index) Renamed(n *xmltree.Node, old string) {
	if len(x.lists) == 0 || n.Kind() != xmltree.KindElement {
		return
	}
	if l := x.find(old); l != nil {
		if i, _ := search(l.nodes, n); i < len(l.nodes) && l.nodes[i] == n {
			l.nodes = slices.Delete(l.nodes, i, i+1)
		}
	}
	x.add(n)
}

// Drop forgets every list; the next read of a name builds it again.
func (x *Index) Drop() {
	clear(x.lists)
	x.lists = x.lists[:0]
}

// Verify checks every list the index holds against its own walk of
// doc: each must hold exactly the elements of its name, in document
// order.
func (x *Index) Verify(doc *xmltree.Document) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, l := range x.lists {
		walked := xmltree.Descendants(doc.Node(), func(n *xmltree.Node) bool {
			return n.Kind() == xmltree.KindElement && n.Name() == l.name
		})
		if !slices.Equal(l.nodes, walked) {
			return fmt.Errorf("xpath: the index's list of %q (%d elements) disagrees with the document", l.name, len(l.nodes))
		}
	}
	return nil
}

// search returns the first position in list, attached nodes in
// document order, whose node does not precede n, and how many nodes it
// compared with n.
func search(list []*xmltree.Node, n *xmltree.Node) (i, probes int) {
	i = sort.Search(len(list), func(i int) bool {
		probes++
		return xmltree.DocOrderCompare(list[i], n) >= 0
	})
	return i, probes
}
