// Batched update transactions. A Batch queues structural and content
// operations against a session's document and Apply commits them as one
// transaction: every op still fires the labelling callbacks per node
// (schemes see exactly the same insertion/deletion stream as the
// op-at-a-time path), but on auto-verifying sessions the document-order
// invariant is checked once per batch — where the op-at-a-time path
// checks once per op — against the batch's final tree, and the
// operation counter advances once per batch. FLUX-style batch programs
// (Cheney) motivate the shape: updates compose into a program that is
// checked as a whole.
//
// Atomicity: Apply pre-validates every op before touching the tree, so
// statically invalid batches commit nothing. If an op fails mid-batch
// (a labelling overflow, a structural cycle, a reference detached by an
// earlier op) or the commit verification fails, the structural changes
// applied so far are rolled back in reverse order and the error is
// returned.

package update

import (
	"errors"
	"fmt"

	"xmldyn/internal/xmltree"
)

// Batch errors.
var (
	ErrEmptyOp  = errors.New("update: batch op has no reference node")
	ErrBadOp    = errors.New("update: unknown batch op kind")
	ErrNoTree   = errors.New("update: batch subtree op has no subtree")
	ErrAttached = errors.New("update: batch subtree is already attached")
	// ErrRollback wraps a rollback that itself failed: the document may
	// be partially updated and should be rebuilt from a snapshot.
	ErrRollback = errors.New("update: batch rollback failed")
)

// OpKind discriminates batched operations.
type OpKind int

// The batched operation vocabulary: the session's structural and
// content updates, minus moves (a move is delete-plus-insert; batches
// express it as an OpDelete and an OpInsertSubtree* pair).
const (
	OpInsertBefore OpKind = iota
	OpInsertAfter
	OpInsertFirstChild
	OpAppendChild
	OpInsertSubtreeBefore
	OpInsertSubtreeAfter
	OpInsertSubtreeFirst
	OpAppendSubtree
	OpDelete
	OpSetText
	OpRename
	OpSetAttr
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpInsertBefore:
		return "insert-before"
	case OpInsertAfter:
		return "insert-after"
	case OpInsertFirstChild:
		return "insert-first-child"
	case OpAppendChild:
		return "append-child"
	case OpInsertSubtreeBefore:
		return "insert-subtree-before"
	case OpInsertSubtreeAfter:
		return "insert-subtree-after"
	case OpInsertSubtreeFirst:
		return "insert-subtree-first"
	case OpAppendSubtree:
		return "append-subtree"
	case OpDelete:
		return "delete"
	case OpSetText:
		return "set-text"
	case OpRename:
		return "rename"
	case OpSetAttr:
		return "set-attr"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one queued operation. Ref is the reference node (sibling for
// the sibling inserts, parent for the child inserts, target for delete
// and the content updates). Name and Value carry element/attribute
// names and text; Subtree carries the detached root for subtree ops.
type Op struct {
	Kind    OpKind
	Ref     *xmltree.Node
	Name    string
	Value   string
	Subtree *xmltree.Node
}

// Op constructors, one per kind.

// InsertBeforeOp queues a new element immediately before ref.
func InsertBeforeOp(ref *xmltree.Node, name string) Op {
	return Op{Kind: OpInsertBefore, Ref: ref, Name: name}
}

// InsertAfterOp queues a new element immediately after ref.
func InsertAfterOp(ref *xmltree.Node, name string) Op {
	return Op{Kind: OpInsertAfter, Ref: ref, Name: name}
}

// InsertFirstChildOp queues a new element as parent's first child.
func InsertFirstChildOp(parent *xmltree.Node, name string) Op {
	return Op{Kind: OpInsertFirstChild, Ref: parent, Name: name}
}

// AppendChildOp queues a new element as parent's last child.
func AppendChildOp(parent *xmltree.Node, name string) Op {
	return Op{Kind: OpAppendChild, Ref: parent, Name: name}
}

// InsertSubtreeBeforeOp queues grafting a detached subtree before ref.
func InsertSubtreeBeforeOp(ref, root *xmltree.Node) Op {
	return Op{Kind: OpInsertSubtreeBefore, Ref: ref, Subtree: root}
}

// InsertSubtreeAfterOp queues grafting a detached subtree after ref.
func InsertSubtreeAfterOp(ref, root *xmltree.Node) Op {
	return Op{Kind: OpInsertSubtreeAfter, Ref: ref, Subtree: root}
}

// InsertSubtreeFirstOp queues grafting a detached subtree as parent's
// first non-attribute child.
func InsertSubtreeFirstOp(parent, root *xmltree.Node) Op {
	return Op{Kind: OpInsertSubtreeFirst, Ref: parent, Subtree: root}
}

// AppendSubtreeOp queues grafting a detached subtree under parent.
func AppendSubtreeOp(parent, root *xmltree.Node) Op {
	return Op{Kind: OpAppendSubtree, Ref: parent, Subtree: root}
}

// DeleteOp queues deleting the subtree rooted at n.
func DeleteOp(n *xmltree.Node) Op { return Op{Kind: OpDelete, Ref: n} }

// SetTextOp queues replacing the direct text content of an element.
func SetTextOp(e *xmltree.Node, text string) Op {
	return Op{Kind: OpSetText, Ref: e, Value: text}
}

// RenameOp queues renaming an element or attribute.
func RenameOp(n *xmltree.Node, name string) Op {
	return Op{Kind: OpRename, Ref: n, Name: name}
}

// SetAttrOp queues setting an attribute.
func SetAttrOp(e *xmltree.Node, name, value string) Op {
	return Op{Kind: OpSetAttr, Ref: e, Name: name, Value: value}
}

// BatchResult reports a committed batch. New holds, per op, the node an
// insert created (nil for subtree, delete and content ops).
type BatchResult struct {
	New []*xmltree.Node
}

// Batch accumulates ops for one session and commits them atomically.
// The zero value is not usable; obtain one from Session.Batch.
type Batch struct {
	s   *Session
	ops []Op
}

// Batch returns an empty batch bound to the session.
func (s *Session) Batch() *Batch { return &Batch{s: s} }

// Len reports the number of queued ops.
func (b *Batch) Len() int { return len(b.ops) }

// Ops returns the queued ops (shared backing array; do not mutate
// while committing).
func (b *Batch) Ops() []Op { return b.ops }

// Add queues an already-constructed op.
func (b *Batch) Add(op Op) *Batch { b.ops = append(b.ops, op); return b }

// InsertBefore queues a new element immediately before ref.
func (b *Batch) InsertBefore(ref *xmltree.Node, name string) *Batch {
	return b.Add(InsertBeforeOp(ref, name))
}

// InsertAfter queues a new element immediately after ref.
func (b *Batch) InsertAfter(ref *xmltree.Node, name string) *Batch {
	return b.Add(InsertAfterOp(ref, name))
}

// InsertFirstChild queues a new element as parent's first child.
func (b *Batch) InsertFirstChild(parent *xmltree.Node, name string) *Batch {
	return b.Add(InsertFirstChildOp(parent, name))
}

// AppendChild queues a new element as parent's last child.
func (b *Batch) AppendChild(parent *xmltree.Node, name string) *Batch {
	return b.Add(AppendChildOp(parent, name))
}

// InsertSubtreeBefore queues grafting a detached subtree before ref.
func (b *Batch) InsertSubtreeBefore(ref, root *xmltree.Node) *Batch {
	return b.Add(InsertSubtreeBeforeOp(ref, root))
}

// InsertSubtreeAfter queues grafting a detached subtree after ref.
func (b *Batch) InsertSubtreeAfter(ref, root *xmltree.Node) *Batch {
	return b.Add(InsertSubtreeAfterOp(ref, root))
}

// InsertSubtreeFirst queues grafting a detached subtree as parent's
// first non-attribute child.
func (b *Batch) InsertSubtreeFirst(parent, root *xmltree.Node) *Batch {
	return b.Add(InsertSubtreeFirstOp(parent, root))
}

// AppendSubtree queues grafting a detached subtree under parent.
func (b *Batch) AppendSubtree(parent, root *xmltree.Node) *Batch {
	return b.Add(AppendSubtreeOp(parent, root))
}

// Delete queues deleting the subtree rooted at n.
func (b *Batch) Delete(n *xmltree.Node) *Batch { return b.Add(DeleteOp(n)) }

// SetText queues replacing the direct text content of e.
func (b *Batch) SetText(e *xmltree.Node, text string) *Batch {
	return b.Add(SetTextOp(e, text))
}

// Rename queues renaming n.
func (b *Batch) Rename(n *xmltree.Node, name string) *Batch {
	return b.Add(RenameOp(n, name))
}

// SetAttr queues setting an attribute on e.
func (b *Batch) SetAttr(e *xmltree.Node, name, value string) *Batch {
	return b.Add(SetAttrOp(e, name, value))
}

// Commit applies the queued ops as one transaction and resets the
// batch for reuse.
func (b *Batch) Commit() (*BatchResult, error) {
	res, err := b.s.Apply(b.ops)
	if err == nil {
		b.ops = b.ops[:0]
	}
	return res, err
}

// Apply commits ops as one transaction: pre-validate everything, apply
// each op (labelling callbacks fire per node exactly as in the
// op-at-a-time path), then count one operation and — on sessions with
// auto-verify — check document order once, where the op-at-a-time path
// would have checked once per op. On any mid-batch failure the applied
// prefix is rolled back in reverse order.
func (s *Session) Apply(ops []Op) (*BatchResult, error) {
	res, _, err := s.ApplyStaged(ops)
	return res, err
}

// ApplyStaged commits ops exactly as Apply does, but also returns a
// rollback closure that undoes the whole committed batch — structure,
// labels and counters — restoring the pre-batch state. It exists for
// cross-document transactions (the repository's MultiBatch): a
// coordinator applies one document's batch, holds the rollback, and
// runs it if a later document's batch fails, so the transaction
// commits everywhere or nowhere. The closure is non-nil iff err is
// nil; it must run before any further mutation of the document (it
// replays the undo log against the exact post-batch state) and at
// most once. A rollback error wraps ErrRollback: the document is
// partially restored and should be rebuilt from a snapshot.
func (s *Session) ApplyStaged(ops []Op) (*BatchResult, func() error, error) {
	res := &BatchResult{New: make([]*xmltree.Node, len(ops))}
	if len(ops) == 0 {
		return res, func() error { return nil }, nil
	}
	if err := s.validateBatch(ops); err != nil {
		return nil, nil, err
	}
	s.inBatch = true
	defer func() { s.inBatch = false }()
	var undo []func() error
	// The relabel counters as the batch found them: the rollback
	// closure below must notice labels the batch itself changed.
	before := s.lab.Stats().Relabelling()
	fail := func(err error) (*BatchResult, func() error, error) {
		rbErr := s.rollback(undo)
		// Nothing of the batch is left to verify — unless the rollback
		// broke, and then only a full pass can say what is.
		s.forgetTouched()
		// The tree was mutated and (on a clean rollback) restored; on a
		// failed rollback it is partially restored. Either way notify,
		// so a cached MVCC version can never survive a tree the batch
		// touched (docs/CONCURRENCY.md).
		s.notifyCommit()
		if rbErr != nil {
			s.baseOK = false
			// Keep both chains matchable: the rollback failure and the
			// op error that triggered it.
			return nil, nil, fmt.Errorf("%w (after %w)", rbErr, err)
		}
		return nil, nil, err
	}
	for i := range ops {
		n, u, err := s.applyOp(&ops[i])
		if err != nil {
			return fail(fmt.Errorf("update: batch op %d (%v): %w", i, ops[i].Kind, err))
		}
		res.New[i] = n
		if u != nil {
			undo = append(undo, u)
		}
	}
	// Mirror the single-op policy: with auto-verify on, the commit
	// re-checks order exactly once for the whole batch; with it off
	// (bulk loads that verify at the end), no check runs at all.
	if err := s.verifyCommitted(); err != nil {
		return fail(fmt.Errorf("update: batch verify: %w", err))
	}
	s.ctr.Operations++
	s.ctr.Batches++
	s.notifyCommit()
	rollback := func() error {
		err := s.rollback(undo)
		s.notifyCommit() // the undo log mutated the tree back
		// The restored adjacencies passed before the batch. They pass
		// now only with the labels they had then: a label the batch
		// (or its undo) changed was verified beside the batch's nodes,
		// not beside the neighbour it has got back.
		if err != nil || s.lab.Stats().Relabelling() != before {
			s.baseOK = false
		}
		if err != nil {
			return err
		}
		s.ctr.Operations--
		s.ctr.Batches--
		return nil
	}
	return res, rollback, nil
}

// validateBatch rejects statically invalid batches before any mutation.
// Later ops may still fail at apply time when they depend on document
// state an earlier op changes (e.g. inserting relative to a node a
// previous op deletes); those failures roll back.
func (s *Session) validateBatch(ops []Op) error {
	// Allocated lazily: only subtree and delete ops consult them, and
	// the hot path (insert-only batches) should not pay two maps.
	var seen, doomed map[*xmltree.Node]bool
	lazySeen := func() map[*xmltree.Node]bool {
		if seen == nil {
			seen = make(map[*xmltree.Node]bool)
		}
		return seen
	}
	for i := range ops {
		op := &ops[i]
		if op.Ref == nil {
			return fmt.Errorf("update: batch op %d (%v): %w", i, op.Kind, ErrEmptyOp)
		}
		switch op.Kind {
		case OpInsertBefore, OpInsertAfter:
			if err := checkSiblingRef(op.Ref); err != nil {
				return fmt.Errorf("update: batch op %d (%v): %w", i, op.Kind, err)
			}
		case OpInsertFirstChild, OpAppendChild:
			// canContain errors surface at apply time.
		case OpInsertSubtreeBefore, OpInsertSubtreeAfter:
			if err := checkSiblingRef(op.Ref); err != nil {
				return fmt.Errorf("update: batch op %d (%v): %w", i, op.Kind, err)
			}
			if err := checkBatchSubtree(op, lazySeen(), doomed); err != nil {
				return fmt.Errorf("update: batch op %d (%v): %w", i, op.Kind, err)
			}
		case OpInsertSubtreeFirst, OpAppendSubtree:
			if err := checkBatchSubtree(op, lazySeen(), doomed); err != nil {
				return fmt.Errorf("update: batch op %d (%v): %w", i, op.Kind, err)
			}
		case OpDelete:
			if op.Ref.Parent() == nil {
				return fmt.Errorf("update: batch op %d (%v): %w", i, op.Kind, ErrDetachedRef)
			}
			if doomed == nil {
				doomed = make(map[*xmltree.Node]bool)
			}
			doomed[op.Ref] = true
		case OpSetText:
			if op.Ref.Kind() != xmltree.KindElement {
				return fmt.Errorf("update: batch op %d (%v): %w", i, op.Kind, ErrNotElement)
			}
		case OpRename:
			if k := op.Ref.Kind(); k != xmltree.KindElement && k != xmltree.KindAttribute {
				return fmt.Errorf("update: batch op %d (%v): %w", i, op.Kind, ErrNotElement)
			}
		case OpSetAttr:
			if op.Ref.Kind() != xmltree.KindElement {
				return fmt.Errorf("update: batch op %d (%v): %w", i, op.Kind, ErrNotElement)
			}
		default:
			return fmt.Errorf("update: batch op %d: %w %d", i, ErrBadOp, int(op.Kind))
		}
	}
	return nil
}

// checkBatchSubtree validates a subtree op's root, rejecting the same
// root grafted twice in one batch. The root must be detached — or be
// the exact target of an earlier OpDelete in the same batch, which is
// how a batch expresses a move (delete then re-graft: by the time the
// graft applies, the delete has detached it).
func checkBatchSubtree(op *Op, seen, doomed map[*xmltree.Node]bool) error {
	if op.Subtree == nil {
		return ErrNoTree
	}
	if (op.Subtree.Parent() != nil && !doomed[op.Subtree]) || seen[op.Subtree] {
		return ErrAttached
	}
	if op.Subtree.Kind() != xmltree.KindElement {
		return ErrNotElement
	}
	seen[op.Subtree] = true
	return nil
}

// attached reports whether n is reachable from the session's document
// node: a node whose ancestor chain dead-ends below the document is
// inside a subtree some earlier op detached.
func (s *Session) attached(n *xmltree.Node) bool {
	for ; n != nil; n = n.Parent() {
		if n == s.doc.Node() {
			return true
		}
	}
	return false
}

// applyOp applies one op inside a batch, returning the created node
// (inserts only) and an undo closure reversing the op's structural and
// accounting effects. Every op's reference must still be attached to
// the document: pre-validation only sees the batch's starting state,
// so a ref inside a subtree an earlier op deleted is caught here —
// otherwise the op would silently mutate the detached subtree.
func (s *Session) applyOp(op *Op) (*xmltree.Node, func() error, error) {
	if !s.attached(op.Ref) {
		return nil, nil, ErrDetachedRef
	}
	switch op.Kind {
	case OpInsertBefore:
		return s.applyInsert(func() (*xmltree.Node, error) { return s.InsertBefore(op.Ref, op.Name) })
	case OpInsertAfter:
		return s.applyInsert(func() (*xmltree.Node, error) { return s.InsertAfter(op.Ref, op.Name) })
	case OpInsertFirstChild:
		return s.applyInsert(func() (*xmltree.Node, error) { return s.InsertFirstChild(op.Ref, op.Name) })
	case OpAppendChild:
		return s.applyInsert(func() (*xmltree.Node, error) { return s.AppendChild(op.Ref, op.Name) })
	case OpInsertSubtreeBefore:
		u, err := s.applySubtree(op.Subtree, func() error { return s.InsertSubtreeBefore(op.Ref, op.Subtree) })
		return nil, u, err
	case OpInsertSubtreeAfter:
		u, err := s.applySubtree(op.Subtree, func() error { return s.InsertSubtreeAfter(op.Ref, op.Subtree) })
		return nil, u, err
	case OpInsertSubtreeFirst:
		u, err := s.applySubtree(op.Subtree, func() error { return s.InsertSubtreeFirst(op.Ref, op.Subtree) })
		return nil, u, err
	case OpAppendSubtree:
		u, err := s.applySubtree(op.Subtree, func() error { return s.AppendSubtree(op.Ref, op.Subtree) })
		return nil, u, err
	case OpDelete:
		u, err := s.applyDelete(op.Ref)
		return nil, u, err
	case OpSetText:
		u, err := s.applySetText(op.Ref, op.Value)
		return nil, u, err
	case OpRename:
		old := op.Ref.Name()
		err := s.Rename(op.Ref, op.Name)
		if err != nil {
			return nil, nil, err
		}
		target := op.Ref
		return nil, func() error {
			target.SetName(old)
			s.ctr.ContentUpdates--
			return nil
		}, nil
	case OpSetAttr:
		u, err := s.applySetAttr(op.Ref, op.Name, op.Value)
		return nil, u, err
	default:
		return nil, nil, fmt.Errorf("%w %d", ErrBadOp, int(op.Kind))
	}
}

// applyInsert runs a single-element insert, cleaning up the attached
// node if labelling failed, and returns the undo closure.
func (s *Session) applyInsert(do func() (*xmltree.Node, error)) (*xmltree.Node, func() error, error) {
	n, err := do()
	if err != nil {
		// The node comes back attached even when labelling failed;
		// detach it so the failed op leaves no trace.
		if n != nil && n.Parent() != nil {
			s.lab.NodeDeleting(n)
			n.Detach()
		}
		return nil, nil, err
	}
	undo := func() error {
		s.lab.NodeDeleting(n)
		n.Detach()
		s.ctr.Inserts--
		return nil
	}
	return n, undo, nil
}

// applySubtree runs a subtree graft, unwinding a partially labelled
// subtree on failure, and returns the undo closure.
func (s *Session) applySubtree(root *xmltree.Node, do func() error) (func() error, error) {
	before := s.ctr.Inserts
	if err := do(); err != nil {
		// Labelling may have failed partway through the subtree walk:
		// release whatever prefix got labels and restore the count.
		if root.Parent() != nil {
			s.lab.NodeDeleting(root)
			root.Detach()
		}
		s.ctr.Inserts = before
		return nil, err
	}
	undo := func() error {
		k := int64(countLabellable(root))
		s.lab.NodeDeleting(root)
		root.Detach()
		s.ctr.Inserts -= k
		return nil
	}
	return undo, nil
}

// applyDelete deletes n, remembering its position so the undo can
// re-graft and re-label the subtree where it stood.
func (s *Session) applyDelete(n *xmltree.Node) (func() error, error) {
	parent := n.Parent()
	next := n.NextSibling()
	isAttr := n.Kind() == xmltree.KindAttribute
	attrIdx := -1
	if isAttr {
		attrIdx = n.Index()
	}
	removed := int64(0)
	if n.Kind() == xmltree.KindElement || isAttr {
		removed = int64(countLabellable(n))
	}
	if err := s.Delete(n); err != nil {
		return nil, err
	}
	return func() error {
		var err error
		switch {
		case isAttr:
			// Restore at the recorded position: attribute order is
			// document order, so a rollback must not permute it.
			err = parent.InsertAttrAt(attrIdx, n)
		case next != nil:
			err = xmltree.InsertBefore(next, n)
		default:
			err = parent.AppendChild(n)
		}
		if err != nil {
			return err
		}
		s.ctr.Deletes -= removed
		if removed > 0 {
			return s.relabelRestored(n)
		}
		return nil
	}, nil
}

// relabelRestored re-labels a restored subtree without counting the
// labels as fresh inserts, using the same document-order walk as the
// insert path.
func (s *Session) relabelRestored(root *xmltree.Node) error {
	// Fresh labels that no commit will verify: the rollback ends the
	// transaction, so the next verification must be the full pass.
	s.baseOK = false
	return walkLabellable(root, s.lab.NodeInserted)
}

// applySetText captures e's current text children, delegates the
// mutation to SetText (so batched and single-op text replacement can
// never diverge), and returns an undo restoring the captured nodes at
// their original positions.
func (s *Session) applySetText(e *xmltree.Node, text string) (func() error, error) {
	if e.Kind() != xmltree.KindElement {
		return nil, ErrNotElement
	}
	type oldText struct {
		node *xmltree.Node
		idx  int
	}
	var olds []oldText
	for i, c := range e.Children() {
		if c.Kind() == xmltree.KindText {
			olds = append(olds, oldText{c, i})
		}
	}
	if err := s.SetText(e, text); err != nil {
		return nil, err
	}
	// SetText appends the replacement (if any) as the last child.
	var added *xmltree.Node
	if text != "" {
		added = e.LastChild()
	}
	return func() error {
		if added != nil {
			added.Detach()
		}
		for _, o := range olds {
			if err := e.InsertChildAt(o.idx, o.node); err != nil {
				return err
			}
		}
		s.ctr.ContentUpdates--
		return nil
	}, nil
}

// applySetAttr sets an attribute, undoing to the prior value (or
// removing a freshly created attribute and its label).
func (s *Session) applySetAttr(e *xmltree.Node, name, value string) (func() error, error) {
	old, existed := e.Attr(name)
	a, err := s.SetAttr(e, name, value)
	if err != nil {
		return nil, err
	}
	if existed {
		return func() error {
			a.SetValue(old)
			s.ctr.ContentUpdates--
			return nil
		}, nil
	}
	return func() error {
		s.lab.NodeDeleting(a)
		e.RemoveAttr(name)
		s.ctr.Inserts--
		return nil
	}, nil
}

// rollback runs the undo log in reverse.
func (s *Session) rollback(undo []func() error) error {
	for i := len(undo) - 1; i >= 0; i-- {
		if err := undo[i](); err != nil {
			return fmt.Errorf("%w: %v", ErrRollback, err)
		}
	}
	return nil
}
