// Package update implements the XML update mechanism of the paper's §3:
// structural updates (insertion and deletion of leaf nodes, internal
// nodes and subtrees, in any sibling position) and content updates
// (value and name changes), applied to a document while a labelling
// scheme maintains document order. A Session couples one document with
// one labeling and accounts for every operation, so the evaluation
// framework can read persistence, overflow and growth behaviour straight
// off the session counters.
package update

import (
	"errors"
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/xmltree"
)

// Errors reported by update operations.
var (
	ErrDetachedRef = errors.New("update: reference node is not attached")
	ErrNotElement  = errors.New("update: operation requires an element node")
	ErrRootSibling = errors.New("update: cannot insert a sibling of the root element")
)

// checkSiblingRef validates a reference node for sibling insertion:
// attached, and not the root element (a document has exactly one root).
func checkSiblingRef(ref *xmltree.Node) error {
	p := ref.Parent()
	if p == nil {
		return ErrDetachedRef
	}
	if p.Kind() == xmltree.KindDocument {
		return ErrRootSibling
	}
	return nil
}

// Counters aggregates per-session operation counts.
type Counters struct {
	Inserts        int64 // labellable nodes inserted
	Deletes        int64 // labellable nodes deleted
	ContentUpdates int64
	Operations     int64 // top-level operations applied (a batch counts as one)
	Batches        int64 // committed batch transactions
	// Verifies counts commit-time order verifications: one per
	// auto-verified transaction (a top-level op or a batch), whichever
	// way it was answered. FullVerifies counts those among them that
	// walked the whole document (verifyCommitted lists when); the rest
	// compared only the adjacencies the transaction created.
	Verifies     int64
	FullVerifies int64
}

// Session couples a document with a labelling scheme instance.
type Session struct {
	doc *xmltree.Document
	lab labeling.Interface
	ctr Counters
	// autoVerify re-checks document order after every committed
	// operation (once per batch for batched applies).
	autoVerify bool
	// Incremental verification state (verifyCommitted). touched holds
	// the roots of the subtrees labelled in the open transaction and
	// gaps, per delete, the labelled node that preceded the deleted
	// subtree. baseOK says every adjacency of the document passed a
	// verification, with the labels the nodes have carried since
	// baseMark was read off the labelling's relabel counters.
	touched  []*xmltree.Node
	gaps     []*xmltree.Node
	baseOK   bool
	baseMark labeling.Stats
	// inBatch suppresses per-op accounting and verification while
	// Apply drains a batch; the batch commit does both once.
	inBatch bool
	// onCommit, when set, runs after every committed mutation of the
	// document — once per top-level operation, once per committed
	// batch, and after a batch rollback (which mutates the tree back).
	// The repository layer uses it to supersede published MVCC
	// versions (docs/CONCURRENCY.md); it runs while the caller still
	// holds whatever lock guards the session.
	onCommit func()
}

// NewSession builds the labeling for doc and returns the session.
func NewSession(doc *xmltree.Document, lab labeling.Interface) (*Session, error) {
	if err := lab.Build(doc); err != nil {
		return nil, fmt.Errorf("update: build %s: %w", lab.Name(), err)
	}
	return &Session{doc: doc, lab: lab}, nil
}

// Document returns the session's document.
func (s *Session) Document() *xmltree.Document { return s.doc }

// Labeling returns the session's labeling.
func (s *Session) Labeling() labeling.Interface { return s.lab }

// Counters returns a copy of the operation counters.
func (s *Session) Counters() Counters { return s.ctr }

// SetAutoVerify toggles commit-time order verification. With it on,
// every transaction — a single top-level operation, or a whole batch —
// ends with one check of the document-order invariant, whose verdict is
// that of a full VerifyOrder pass but whose cost is normally
// proportional to what the transaction labelled and deleted
// (verifyCommitted). A failed per-op check reports the violation but
// leaves the op applied (only batches roll back); use Apply for
// all-or-nothing semantics. Mutations made while it is off are not
// tracked: the first verification after turning it back on walks the
// whole document.
func (s *Session) SetAutoVerify(on bool) { s.autoVerify = on }

// AutoVerify reports whether per-operation verification is on.
func (s *Session) AutoVerify() bool { return s.autoVerify }

// SetOnCommit installs fn as the session's commit hook: it runs after
// every committed mutation — each top-level operation, each committed
// batch, and each batch rollback (a rollback mutates the tree back to
// its pre-batch state). fn must be fast and must not call back into
// the session. The repository layer uses the hook to publish a
// persistent path-copied MVCC version of the document on every
// commit, which is what makes snapshot reads see only committed
// states and snapshot pins O(1) (docs/CONCURRENCY.md);
// a nil fn removes the hook. Sessions adopted into a repository have
// their hook owned by it — replacing the hook on such a session (e.g.
// inside a View/Update callback) breaks snapshot consistency.
func (s *Session) SetOnCommit(fn func()) { s.onCommit = fn }

// notifyCommit fires the commit hook, if any.
func (s *Session) notifyCommit() {
	if s.onCommit != nil {
		s.onCommit()
	}
}

// finishOp closes out one top-level operation: it counts the operation
// and, when auto-verification is on, re-checks document order. Inside a
// batch both are deferred to the commit, which performs them once for
// the whole transaction.
func (s *Session) finishOp() error {
	if s.inBatch {
		return nil
	}
	s.ctr.Operations++
	// Notify before the verification: a failed per-op check reports
	// the violation but leaves the op applied (see SetAutoVerify), so
	// the document has changed either way.
	s.notifyCommit()
	return s.verifyCommitted()
}

// verifyCommitted is the one commit-time verification, run at the end
// of every transaction (finishOp, ApplyStaged). Its verdict is that of
// labeling.VerifyOrder over the whole document; it gets there by
// induction. The base: at the last verification every adjacent pair of
// labelled nodes was in order. The step: a pair that is adjacent now
// either was adjacent then and still carries the same two labels, or is
// new — and the only new adjacencies are the ones the transaction made:
//
//   - around and inside each subtree it labelled (an inserted element
//     or attribute is a subtree of one): predecessor < first node, each
//     internal pair, last node < successor;
//   - across each gap a delete closed: the node that preceded the
//     deleted subtree < whatever follows that node now.
//
// So checking those is checking everything. The induction is state, not
// assumption — the full pass runs instead, and re-establishes the base,
// whenever the base is not known to hold:
//
//  1. no verification has passed yet (the session's first, or the one
//     after a failed one);
//  2. the labelling's RelabelEvents, Relabeled or OverflowEvents moved
//     since the base was taken: an existing label changed — the paper's
//     Persistent Labels property is exactly that these stay put;
//  3. a transaction ended without a verification of what it left: a
//     rollback re-labelled the nodes it restored (relabelRestored),
//     failed, or undid a batch that had changed labels; or a single op
//     failed after changing the tree (dropBase);
//  4. transactions ran with auto-verify off.
//
// All structural change must go through the session, as the commit
// hook already requires: a node attached behind its back is seen only
// by the full pass (Verify).
func (s *Session) verifyCommitted() error {
	if !s.autoVerify {
		s.baseOK = false // trigger 4
		return nil
	}
	s.ctr.Verifies++
	mark := s.lab.Stats().Relabelling()
	var err error
	if s.baseOK && mark == s.baseMark {
		err = s.verifyTouched()
	} else {
		s.ctr.FullVerifies++
		err = labeling.VerifyOrder(s.lab, s.doc)
	}
	s.forgetTouched()
	s.baseOK, s.baseMark = err == nil, mark
	return err
}

// verifyTouched checks the adjacencies the open transaction created.
// Neighbours are resolved now, against the final tree: a later op of
// the batch may have moved them, and a recorded node that is detached
// by now was deleted again — the delete recorded the gap it left.
func (s *Session) verifyTouched() error {
	c := &labeling.OrderCheck{Lab: s.lab}
	next := c.Next
	for _, root := range s.touched {
		if !s.attached(root) {
			continue
		}
		if err := c.Restart(xmltree.PrevLabelled(root)); err != nil {
			return err
		}
		if err := walkLabellable(root, next); err != nil {
			return err
		}
		if after := xmltree.NextLabelledAfter(root); after != nil {
			if err := c.Next(after); err != nil {
				return err
			}
		}
	}
	for _, prev := range s.gaps {
		if !s.attached(prev) {
			continue
		}
		if after := xmltree.NextLabelled(prev); after != nil {
			if err := c.Restart(prev); err != nil {
				return err
			}
			if err := c.Next(after); err != nil {
				return err
			}
		}
	}
	return nil
}

// noteLabelled records a subtree the open transaction labelled.
func (s *Session) noteLabelled(root *xmltree.Node) {
	if s.autoVerify {
		s.touched = append(s.touched, root)
	}
}

// noteDeleting records the gap that detaching the labelled subtree at n
// is about to close; call it while n is still attached.
func (s *Session) noteDeleting(n *xmltree.Node) {
	if s.autoVerify {
		s.gaps = append(s.gaps, xmltree.PrevLabelled(n))
	}
}

// forgetTouched ends the open transaction's bookkeeping. The slices are
// reused; clearing them keeps deleted subtrees collectable.
func (s *Session) forgetTouched() {
	clear(s.touched)
	clear(s.gaps)
	s.touched, s.gaps = s.touched[:0], s.gaps[:0]
}

// dropBase makes the next verification a full pass: the tree changed
// in a way no verification has seen.
func (s *Session) dropBase() {
	s.forgetTouched()
	s.baseOK = false
}

// --- structural updates ----------------------------------------------------

// InsertBefore inserts a new element with the given name immediately
// before ref and labels it.
func (s *Session) InsertBefore(ref *xmltree.Node, name string) (*xmltree.Node, error) {
	if err := checkSiblingRef(ref); err != nil {
		return nil, err
	}
	n := xmltree.NewElement(name)
	if err := xmltree.InsertBefore(ref, n); err != nil {
		return nil, err
	}
	return n, s.labelNew(n)
}

// InsertAfter inserts a new element immediately after ref.
func (s *Session) InsertAfter(ref *xmltree.Node, name string) (*xmltree.Node, error) {
	if err := checkSiblingRef(ref); err != nil {
		return nil, err
	}
	n := xmltree.NewElement(name)
	if err := xmltree.InsertAfter(ref, n); err != nil {
		return nil, err
	}
	return n, s.labelNew(n)
}

// InsertFirstChild inserts a new element as parent's first child.
func (s *Session) InsertFirstChild(parent *xmltree.Node, name string) (*xmltree.Node, error) {
	n := xmltree.NewElement(name)
	if err := parent.PrependChild(n); err != nil {
		return nil, err
	}
	return n, s.labelNew(n)
}

// AppendChild inserts a new element as parent's last child.
func (s *Session) AppendChild(parent *xmltree.Node, name string) (*xmltree.Node, error) {
	n := xmltree.NewElement(name)
	if err := parent.AppendChild(n); err != nil {
		return nil, err
	}
	return n, s.labelNew(n)
}

// SetAttr sets an attribute; a newly created attribute node is labelled
// (attributes are labellable leaves in the paper's model).
func (s *Session) SetAttr(e *xmltree.Node, name, value string) (*xmltree.Node, error) {
	if _, exists := e.Attr(name); exists {
		a, err := e.SetAttr(name, value)
		if err != nil {
			return nil, err
		}
		s.ctr.ContentUpdates++
		return a, s.finishOp()
	}
	a, err := e.SetAttr(name, value)
	if err != nil {
		return nil, err
	}
	return a, s.labelNew(a)
}

// InsertSubtreeBefore grafts a detached subtree immediately before ref,
// labelling every labellable node in document order ("subtree insertions
// may be serialised as a sequence of nodes and inserted individually" —
// §3.1.2).
func (s *Session) InsertSubtreeBefore(ref *xmltree.Node, root *xmltree.Node) error {
	if err := checkSiblingRef(ref); err != nil {
		return err
	}
	if err := xmltree.InsertBefore(ref, root); err != nil {
		return err
	}
	return s.labelSubtree(root)
}

// InsertSubtreeAfter grafts a detached subtree immediately after ref.
func (s *Session) InsertSubtreeAfter(ref *xmltree.Node, root *xmltree.Node) error {
	if err := checkSiblingRef(ref); err != nil {
		return err
	}
	if err := xmltree.InsertAfter(ref, root); err != nil {
		return err
	}
	return s.labelSubtree(root)
}

// AppendSubtree grafts a detached subtree as parent's last child.
func (s *Session) AppendSubtree(parent *xmltree.Node, root *xmltree.Node) error {
	if err := parent.AppendChild(root); err != nil {
		return err
	}
	return s.labelSubtree(root)
}

// InsertSubtreeFirst grafts a detached subtree as parent's first
// non-attribute child.
func (s *Session) InsertSubtreeFirst(parent *xmltree.Node, root *xmltree.Node) error {
	if err := parent.PrependChild(root); err != nil {
		return err
	}
	return s.labelSubtree(root)
}

// Delete detaches the subtree rooted at n (leaf deletion is the
// degenerate case) after releasing its labels.
func (s *Session) Delete(n *xmltree.Node) error {
	if n.Parent() == nil {
		return ErrDetachedRef
	}
	removed := int64(0)
	if n.Kind() == xmltree.KindElement || n.Kind() == xmltree.KindAttribute {
		removed = int64(countLabellable(n))
		s.noteDeleting(n)
		s.lab.NodeDeleting(n)
	}
	n.Detach()
	s.ctr.Deletes += removed
	return s.finishOp()
}

// MoveBefore detaches the subtree rooted at n and re-inserts it
// immediately before ref. A move is delete-plus-insert at the labelling
// level: the subtree receives fresh labels at the destination (the
// paper's update taxonomy has no primitive move; §3.1.2: subtrees are
// "serialised as a sequence of nodes and inserted individually").
func (s *Session) MoveBefore(ref, n *xmltree.Node) error {
	if err := checkSiblingRef(ref); err != nil {
		return err
	}
	return s.move(n, func() error { return xmltree.InsertBefore(ref, n) }, ref)
}

// MoveAfter detaches the subtree rooted at n and re-inserts it
// immediately after ref.
func (s *Session) MoveAfter(ref, n *xmltree.Node) error {
	if err := checkSiblingRef(ref); err != nil {
		return err
	}
	return s.move(n, func() error { return xmltree.InsertAfter(ref, n) }, ref)
}

// MoveAppend detaches the subtree rooted at n and appends it under
// parent.
func (s *Session) MoveAppend(parent, n *xmltree.Node) error {
	return s.move(n, func() error { return parent.AppendChild(n) }, parent)
}

func (s *Session) move(n *xmltree.Node, attach func() error, dest *xmltree.Node) error {
	if n.Parent() == nil {
		return ErrDetachedRef
	}
	if n.Kind() != xmltree.KindElement {
		return ErrNotElement
	}
	if n == dest || n.IsAncestorOf(dest) {
		return xmltree.ErrCycle
	}
	removed := int64(countLabellable(n))
	s.noteDeleting(n)
	s.lab.NodeDeleting(n)
	n.Detach()
	s.ctr.Deletes += removed
	if err := attach(); err != nil {
		// The subtree is detached and stays lost (the single-op path
		// does not roll back) — the tree changed, so the commit hook
		// must fire even though the op failed, and no verification
		// has seen the change.
		s.dropBase()
		s.notifyCommit()
		return err
	}
	// labelSubtree counts the move as one operation.
	return s.labelSubtree(n)
}

// DeleteChildren removes all children of n (an internal-node content
// reset), keeping n itself labelled.
func (s *Session) DeleteChildren(n *xmltree.Node) error {
	kids := append([]*xmltree.Node{}, n.Children()...)
	detached := false
	for _, c := range kids {
		if c.Kind() == xmltree.KindElement {
			if err := s.Delete(c); err != nil {
				return err
			}
			continue
		}
		c.Detach()
		detached = true
	}
	if detached {
		// Non-element children are detached outside the op machinery
		// (no label, no counter), but the tree still changed — the
		// commit hook must fire or a cached MVCC version would survive
		// the mutation (e.g. a text-only child list).
		s.notifyCommit()
	}
	return nil
}

// --- content updates --------------------------------------------------------

// SetText replaces the direct text content of an element. Content
// updates never touch labels (§3.1).
func (s *Session) SetText(e *xmltree.Node, text string) error {
	if e.Kind() != xmltree.KindElement {
		return ErrNotElement
	}
	kids := append([]*xmltree.Node{}, e.Children()...)
	for _, c := range kids {
		if c.Kind() == xmltree.KindText {
			c.Detach()
		}
	}
	if text != "" {
		if err := e.AppendChild(xmltree.NewText(text)); err != nil {
			return err
		}
	}
	s.ctr.ContentUpdates++
	return s.finishOp()
}

// Rename changes an element or attribute name (a content update).
func (s *Session) Rename(n *xmltree.Node, name string) error {
	if n.Kind() != xmltree.KindElement && n.Kind() != xmltree.KindAttribute {
		return ErrNotElement
	}
	n.SetName(name)
	s.ctr.ContentUpdates++
	return s.finishOp()
}

// --- internals ---------------------------------------------------------------

func (s *Session) labelNew(n *xmltree.Node) error {
	if err := s.lab.NodeInserted(n); err != nil {
		// The node is already attached; outside a batch it stays
		// attached (no rollback on the single-op path), so the tree
		// changed and the commit hook must fire. Inside a batch the
		// apply layer cleans up and notifies via its own fail path.
		if !s.inBatch {
			s.dropBase() // an attached, unlabelled node
			s.notifyCommit()
		}
		return fmt.Errorf("update: label %s insert: %w", s.lab.Name(), err)
	}
	s.ctr.Inserts++
	s.noteLabelled(n)
	return s.finishOp()
}

// walkLabellable visits every labellable node of the subtree in
// document order — attributes before children, the order labelling
// relies on. Both the insert path and the batch rollback re-labelling
// share it so their traversals can never diverge.
func walkLabellable(n *xmltree.Node, visit func(*xmltree.Node) error) error {
	if n.Kind() == xmltree.KindElement || n.Kind() == xmltree.KindAttribute {
		if err := visit(n); err != nil {
			return err
		}
	}
	for _, a := range n.Attributes() {
		if err := walkLabellable(a, visit); err != nil {
			return err
		}
	}
	for _, c := range n.Children() {
		if err := walkLabellable(c, visit); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) labelSubtree(root *xmltree.Node) error {
	err := walkLabellable(root, func(n *xmltree.Node) error {
		if err := s.lab.NodeInserted(n); err != nil {
			return err
		}
		s.ctr.Inserts++
		return nil
	})
	if err != nil {
		// As in labelNew: the subtree is already grafted and the
		// single-op path leaves it there, so notify on the error path
		// too (the batch apply layer handles its own cleanup+notify).
		if !s.inBatch {
			s.dropBase() // a grafted, partly labelled subtree
			s.notifyCommit()
		}
		return fmt.Errorf("update: subtree label %s: %w", s.lab.Name(), err)
	}
	s.noteLabelled(root)
	return s.finishOp()
}

func countLabellable(n *xmltree.Node) int {
	if n.Kind() == xmltree.KindAttribute {
		return 1
	}
	count := 1 + len(n.Attributes())
	for _, c := range n.Children() {
		if c.Kind() == xmltree.KindElement {
			count += countLabellable(c)
		}
	}
	return count
}

// Verify re-checks the session's core invariant: labels order exactly as
// the document does. Schemes with the LSDX uniqueness defect fail here
// once a collision occurs. It is always the full pass over the whole
// document, reads only, and leaves the counters and the commit-time
// verification's state alone, so it is safe under a read lock.
func (s *Session) Verify() error {
	return labeling.VerifyOrder(s.lab, s.doc)
}
