// Package update implements the XML update mechanism of the paper's §3:
// structural updates (insertion and deletion of leaf nodes, internal
// nodes and subtrees, in any sibling position) and content updates
// (value and name changes), applied to a document while a labelling
// scheme maintains document order. A Session couples one document with
// one labeling and accounts for every operation, so the evaluation
// framework can read persistence, overflow and growth behaviour straight
// off the session counters.
//
// Every mutation is a transaction (batch.go): a named single op is the
// one-op case, Apply the n-op case, and a move is a delete and a graft
// in one op list.
// A transaction that fails — at validation, at an op, or at the
// commit-time order check — leaves document, labels' order and counters
// as it found them.
package update

import (
	"errors"
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// Errors reported by update operations.
var (
	ErrDetachedRef = errors.New("update: reference node is not attached")
	ErrNotElement  = errors.New("update: operation requires an element node")
	ErrBadName     = errors.New("update: not an XML name")
	ErrDupAttr     = errors.New("update: element already has an attribute of that name")
	ErrRootSibling = errors.New("update: cannot insert a sibling of the root element")
)

// checkSiblingRef validates a reference node for sibling insertion:
// attached, not the root element (a document has exactly one root), and
// a child — an attribute's index says nothing about the child list.
// graft refuses a second root inserted as a child of the document node.
func checkSiblingRef(ref *xmltree.Node) error {
	p := ref.Parent()
	if p == nil {
		return ErrDetachedRef
	}
	if p.Kind() == xmltree.KindDocument {
		return ErrRootSibling
	}
	if ref.Kind() == xmltree.KindAttribute {
		return fmt.Errorf("%w: sibling of an attribute", xmltree.ErrWrongKind)
	}
	return nil
}

// Counters aggregates per-session operation counts.
type Counters struct {
	Inserts        int64 // labellable nodes inserted
	Deletes        int64 // labellable nodes deleted
	ContentUpdates int64
	Operations     int64 // committed transactions (a single op or a batch: one each)
	Batches        int64 // those among them that were batches (Apply, or Stage and Commit)
	// Verifies counts commit-time order verifications: one per
	// auto-verified transaction, whichever way it was answered.
	// FullVerifies counts those among them that walked the whole
	// document (verifyCommitted lists when); the rest compared only the
	// adjacencies the transaction created.
	Verifies     int64
	FullVerifies int64
}

// Session couples a document with a labelling scheme instance.
type Session struct {
	doc *xmltree.Document
	lab labeling.Interface
	ctr Counters
	// autoVerify re-checks document order at the end of every
	// transaction.
	autoVerify bool
	// Incremental verification state (verifyCommitted). touched holds
	// the roots of the subtrees labelled in the open transaction and
	// gaps, per delete, the labelled node that preceded the deleted
	// subtree. baseOK says every adjacency of the document is in order
	// — Build labelled it so, or a verification passed — with the labels
	// the nodes have carried since baseMark was read off the labelling's
	// relabel counters.
	touched  []*xmltree.Node
	gaps     []*xmltree.Node
	baseOK   bool
	baseMark labeling.Stats
	// The open transaction (batch.go): its undo log, and the counters
	// and relabel mark it began with — what revert restores. staged
	// says it passed verification and awaits Commit or Abort; no other
	// transaction starts until then.
	undo      []undoRec
	saved     Counters
	savedMark labeling.Stats
	staged    bool
	// marks is validateBatch's scratch: empty between transactions.
	marks map[*xmltree.Node]uint8
	// fresh is the chunk the nodes a transaction creates are cut from;
	// it outlives the transaction (batch.go).
	fresh freshNodes
	// index lists the document's elements by name for the engine
	// (Engine). The transaction primitives keep it current where they
	// tell the labelling of a change, and revert drops it.
	index xpath.Index
}

// NewSession builds the labeling for doc and returns the session. A
// document with more than one root element is refused (ErrRootSibling).
// Build labels a tree in document order by construction, so the session
// starts verified: Build's labels are the base of verifyCommitted's
// induction, and the first commit checks only what it changed.
func NewSession(doc *xmltree.Document, lab labeling.Interface) (*Session, error) {
	if roots := doc.RootCount(); roots > 1 {
		return nil, fmt.Errorf("%w: document has %d root elements", ErrRootSibling, roots)
	}
	if err := lab.Build(doc); err != nil {
		return nil, fmt.Errorf("update: build %s: %w", lab.Name(), err)
	}
	return &Session{doc: doc, lab: lab, baseOK: true, baseMark: lab.Stats().Relabelling()}, nil
}

// Document returns the session's document.
func (s *Session) Document() *xmltree.Document { return s.doc }

// Labeling returns the session's labeling.
func (s *Session) Labeling() labeling.Interface { return s.lab }

// Engine returns a structural query engine over the session's
// document that reads a deep element step by name from the session's
// element index, building a name's list on its first read. Readers may
// query at once, and not beside a transaction. The index orders by the
// tree, so every scheme reads through it; it is the session's one read
// path. An answer may be a slice of the index's own list, which the next
// transaction edits in place: a caller that keeps an answer past a
// transaction copies it first, as xmldyn.Query does, and
// Repository.QueryFunc states what its reader may do with it.
func (s *Session) Engine() *xpath.Engine { return xpath.Indexed(s.doc, &s.index) }

// Index returns the session's element index, which Engine reads. A
// version published from the document takes over its lists
// (xpath.Index.Capture) with the document's writers held off.
func (s *Session) Index() *xpath.Index { return &s.index }

// Counters returns a copy of the operation counters.
func (s *Session) Counters() Counters { return s.ctr }

// SetAutoVerify toggles commit-time order verification. With it on,
// every transaction — a single operation, a move, or a whole batch —
// ends with one check of the document-order invariant, whose verdict is
// that of a full VerifyOrder pass but whose cost is normally
// proportional to what the transaction labelled and deleted
// (verifyCommitted). A failed check reverts the transaction and reports
// the violation. Mutations made while it is off are not tracked: the
// first verification after turning it back on walks the whole document.
func (s *Session) SetAutoVerify(on bool) { s.autoVerify = on }

// verifyCommitted is the one commit-time verification, run at the end
// of every transaction's stage (batch.go). Its verdict is that of
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
//  1. the last verification failed (a session starts from Build's
//     labels, which need no pass: they are in order by construction);
//  2. the labelling's RelabelEvents, Relabeled or OverflowEvents moved
//     since the base was taken: an existing label changed — the paper's
//     Persistent Labels property is exactly that these stay put;
//  3. an abort re-labelled what it restored or failed — or dropped a
//     transaction that had changed an existing label: it left
//     adjacencies no verification has seen;
//  4. transactions ran with auto-verify off.
//
// All structural change must go through the session: a node attached
// behind its back is seen only by the full pass (Verify).
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

// --- single operations -------------------------------------------------------
//
// Each named mutator is a transaction of one op (batch.go): validated,
// applied, verified and committed — or reverted — exactly as a batch is.
// Every other change, a move among them, is an op list for Apply.

// Do runs op as a transaction of one op and returns the node an insert
// created (nil for the other kinds, and on error). It counts as one
// operation, not as a batch.
func (s *Session) Do(op Op) (*xmltree.Node, error) {
	ops, created := [1]Op{op}, [1]*xmltree.Node{}
	if _, err := s.stage(ops[:], created[:]); err != nil {
		return nil, err
	}
	s.commit(false)
	return created[0], nil
}

func (s *Session) do(op Op) error {
	_, err := s.Do(op)
	return err
}

// InsertBefore inserts a new element with the given name immediately
// before ref and labels it.
func (s *Session) InsertBefore(ref *xmltree.Node, name string) (*xmltree.Node, error) {
	return s.Do(InsertBeforeOp(ref, name))
}

// InsertAfter inserts a new element immediately after ref.
func (s *Session) InsertAfter(ref *xmltree.Node, name string) (*xmltree.Node, error) {
	return s.Do(InsertAfterOp(ref, name))
}

// InsertFirstChild inserts a new element as parent's first child.
func (s *Session) InsertFirstChild(parent *xmltree.Node, name string) (*xmltree.Node, error) {
	return s.Do(InsertFirstChildOp(parent, name))
}

// AppendChild inserts a new element as parent's last child.
func (s *Session) AppendChild(parent *xmltree.Node, name string) (*xmltree.Node, error) {
	return s.Do(AppendChildOp(parent, name))
}

// AppendSubtree grafts a detached subtree as parent's last child,
// labelling every labellable node in document order ("subtree
// insertions may be serialised as a sequence of nodes and inserted
// individually" — §3.1.2).
func (s *Session) AppendSubtree(parent *xmltree.Node, root *xmltree.Node) error {
	return s.do(AppendSubtreeOp(parent, root))
}

// Delete detaches the subtree rooted at n (leaf deletion is the
// degenerate case) after releasing its labels.
func (s *Session) Delete(n *xmltree.Node) error { return s.do(DeleteOp(n)) }

// SetText replaces the direct text content of an element. Content
// updates never touch labels (§3.1).
func (s *Session) SetText(e *xmltree.Node, text string) error { return s.do(SetTextOp(e, text)) }

// --- internals ---------------------------------------------------------------

// walkLabellable is xmltree's labelled-subtree walk, stopped by the
// first error visit returns. The insert path, revert's re-labelling and
// the commit-time check share it, and the labellings forget a deleted
// subtree along the same walk, so their traversals can never diverge.
func walkLabellable(n *xmltree.Node, visit func(*xmltree.Node) error) (err error) {
	n.WalkLabelled(func(x *xmltree.Node) bool { err = visit(x); return err == nil })
	return err
}

// labellable: elements and attributes carry labels (the paper's model).
func labellable(n *xmltree.Node) bool {
	return n.Kind() == xmltree.KindElement || n.Kind() == xmltree.KindAttribute
}

// Verify re-checks the session's core invariant: labels order exactly as
// the document does. Schemes with the LSDX uniqueness defect fail here
// once a collision occurs. It also checks every list of the element
// index against a walk. It is always the full pass over the whole
// document, reads only, and leaves the counters and the commit-time
// verification's state alone, so it is safe under a read lock.
func (s *Session) Verify() error {
	if err := labeling.VerifyOrder(s.lab, s.doc); err != nil {
		return err
	}
	return s.index.Verify(s.doc)
}
