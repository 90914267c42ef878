// Frozen nodes: the immutability primitive behind the repository's
// MVCC snapshot reads (docs/CONCURRENCY.md). Publication marks each
// node it makes frozen (persist.go); a frozen tree can be navigated,
// queried and serialised concurrently by any number of goroutines with
// no lock held, because nothing can change under them — every mutator
// refuses frozen nodes. Freezing is one-way: a frozen node never thaws,
// but Clone of a frozen node returns an ordinary mutable copy, so
// "thaw" is spelled Clone.
//
// Enforcement is split by signature, and the split is part of the
// contract (docs/CONCURRENCY.md §7): mutators that can return an error
// report ErrFrozen; mutators with no error path (SetName, SetValue,
// Detach) panic, because silently ignoring a write to a
// published snapshot would hide a real bug in the caller.
// (File comment — the package doc lives in xmltree.go's sibling,
// node.go.)

package xmltree

import "errors"

// ErrFrozen reports a mutation attempted on a frozen (snapshot) node.
// Error-returning mutators return it; void mutators panic instead.
var ErrFrozen = errors.New("xmltree: node is frozen (snapshot); Clone it to get a mutable copy")

// frozenPanic is the message void mutators panic with; tests match it.
const frozenPanic = "xmltree: mutation of a frozen (snapshot) node"

// Frozen reports whether the node is frozen.
func (n *Node) Frozen() bool { return n.frozen }

// mustThaw panics when n is frozen; void mutators call it first.
func (n *Node) mustThaw() {
	if n.frozen {
		panic(frozenPanic)
	}
}
