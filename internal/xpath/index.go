package xpath

// The element index: a document's elements by name, each name's list
// in document order. The paper's case for labels is that they decide
// order without walking the tree; the index is where the engine takes
// them up on it. A deep element step by name reads a list — all of it
// from the document node, the run inside the context's subtree from an
// element, found by two binary searches over labels — instead of
// walking every node below the context. A published version has an
// index too, and no labels: it answers from the document node only.
// Wildcard and attribute steps, and engines without an index
// (label-only mode), keep walking.

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"xmldyn/internal/labeling"
	"xmldyn/internal/xmltree"
)

// Index holds, for each element name that has been read and found,
// that name's elements of one document in document order. The first
// read of a name builds its list with one walk, and keeps it only if it
// is not empty, so a read of an absent name walks each time. At most
// maxNames lists are held: a name read past that drops the others, so
// a reader of many names costs each commit and each Verify no more than
// maxNames lists do. The zero value is an empty index. The index of a
// published version needs nothing more, since a version never changes.
// That of a live document is kept current by the document's owner,
// calling Inserted, Deleting and Renamed wherever it tells the
// labelling of a change, and Drop where it cannot say what changed.
// Labels place an entry, so the lists are right while the labels order
// as the document does, which is what Verify checks: a scheme that can
// give two nodes one label (lsdx, com-d) breaks that, and the
// repository refuses it.
//
// Readers of the document may read and build lists at once: a build
// holds mu. The maintenance methods run with the document held
// exclusively, so they take no lock. A list a reader is handed is
// capacity-limited, so an append copies it; nobody may write into it.
type Index struct {
	mu    sync.RWMutex
	lists map[string][]*xmltree.Node
}

// maxNames bounds the lists an index holds.
const maxNames = 16

// Indexed returns a structural engine over doc, the document x
// indexes, that answers deep element steps by name from x. lab is nil
// for a published version.
func Indexed(doc *xmltree.Document, lab labeling.Interface, x *Index) *Engine {
	return &Engine{doc: doc, lab: lab, mode: ModeStructural, index: x}
}

// byName answers a deep element step by name from ctx out of the
// index: the whole list from the document node, the run of the list
// inside ctx's subtree from an element, which the labels find. ok is
// false where the step walks instead.
func (e *Engine) byName(ctx *xmltree.Node, st step) (nodes []*xmltree.Node, ok bool) {
	kind := ctx.Kind()
	if e.index == nil || st.attribute || st.name == "*" || (kind != xmltree.KindDocument && (kind != xmltree.KindElement || e.lab == nil)) {
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
	i, probes := search(e.lab, list, n)
	e.examined += probes
	return i
}

// list returns the elements named name below top, the document node, in
// document order, building the list where the index holds none.
func (x *Index) list(top *xmltree.Node, name string, examined *int) []*xmltree.Node {
	x.mu.RLock()
	l, ok := x.lists[name]
	x.mu.RUnlock()
	if !ok {
		x.mu.Lock()
		if l, ok = x.lists[name]; !ok {
			l = xmltree.Descendants(top, func(n *xmltree.Node) bool {
				*examined++
				return n.Kind() == xmltree.KindElement && n.Name() == name
			})
			if len(l) > 0 {
				if x.lists == nil {
					x.lists = make(map[string][]*xmltree.Node)
				} else if len(x.lists) == maxNames {
					clear(x.lists)
				}
				x.lists[name] = l
			}
		}
		x.mu.Unlock()
	}
	return l[:len(l):len(l)]
}

// Inserted adds the elements of the subtree at root, attached and
// labelled, to the lists held for their names.
func (x *Index) Inserted(lab labeling.Interface, root *xmltree.Node) {
	if len(x.lists) == 0 {
		return
	}
	root.WalkLabelled(func(n *xmltree.Node) bool {
		x.add(lab, n)
		return true
	})
}

// add puts n into its name's list, if the index holds one.
func (x *Index) add(lab labeling.Interface, n *xmltree.Node) {
	if l, ok := x.lists[n.Name()]; ok && n.Kind() == xmltree.KindElement {
		i, _ := search(lab, l, n)
		x.lists[n.Name()] = slices.Insert(l, i, n)
	}
}

// Deleting drops the elements of the subtree at root from every list.
// Call it while the subtree is still attached and labelled: its
// elements are the run of each list from root up to the labelled node
// after the subtree.
func (x *Index) Deleting(lab labeling.Interface, root *xmltree.Node) {
	if len(x.lists) == 0 || root.Kind() != xmltree.KindElement {
		return
	}
	after := xmltree.NextLabelledAfter(root)
	for name, l := range x.lists {
		lo, _ := search(lab, l, root)
		hi := len(l)
		if after != nil {
			hi, _ = search(lab, l, after)
		}
		if lo < hi {
			x.lists[name] = slices.Delete(l, lo, hi)
		}
	}
}

// Renamed moves n, just renamed from old, from old's list to its new
// name's.
func (x *Index) Renamed(lab labeling.Interface, n *xmltree.Node, old string) {
	if len(x.lists) == 0 || n.Kind() != xmltree.KindElement {
		return
	}
	if l, ok := x.lists[old]; ok {
		if i, _ := search(lab, l, n); i < len(l) && l[i] == n {
			x.lists[old] = slices.Delete(l, i, i+1)
		}
	}
	x.add(lab, n)
}

// Drop forgets every list; the next read of a name builds it again.
func (x *Index) Drop() { clear(x.lists) }

// Verify checks every list the index holds against one walk of doc:
// each must hold exactly the elements of its name, in document order.
func (x *Index) Verify(doc *xmltree.Document) error {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if len(x.lists) == 0 {
		return nil
	}
	seen := make(map[string]int, len(x.lists)) // each name's elements walked so far; all listed in turn
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		l, ok := x.lists[n.Name()]
		if !ok || n.Kind() != xmltree.KindElement {
			return true
		}
		i := seen[n.Name()]
		if i >= len(l) || l[i] != n {
			seen[n.Name()] = -1 // no list's length
			return false
		}
		seen[n.Name()] = i + 1
		return true
	})
	for name, l := range x.lists {
		if seen[name] != len(l) {
			return fmt.Errorf("xpath: the index's list of %q (%d elements) disagrees with the document", name, len(l))
		}
	}
	return nil
}

// search returns the first position in list, nodes in document order,
// whose node does not precede n, and how many nodes it compared with n.
func search(lab labeling.Interface, list []*xmltree.Node, n *xmltree.Node) (i, probes int) {
	i = sort.Search(len(list), func(i int) bool {
		probes++
		return order(lab, list[i], n) >= 0
	})
	return i, probes
}

// order compares two labelled nodes by their labels.
func order(lab labeling.Interface, a, b *xmltree.Node) int {
	if cmp, ok := lab.CompareNodes(a, b); ok {
		return cmp
	}
	return lab.Compare(lab.Label(a), lab.Label(b))
}
