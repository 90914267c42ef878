// Transactions. Every mutation of a session's document is one
// transaction with three moments:
//
//   - stage: validate the ops against the starting tree (validateBatch)
//     → begin (save the counters and the labelling's relabel mark) →
//     apply each op through primitives that only mutate the tree, fire
//     the labelling callbacks per node and append an undo record →
//     verify the document-order invariant once, against the final tree
//     (verifyCommitted). A failure anywhere reverts and ends the
//     transaction; otherwise it is open, and then either
//   - commit: count one operation and fire the commit hook — the first
//     anyone outside the session hears of it; it cannot fail — or
//   - abort: revert — undo records in reverse, counters put back. The
//     tree is again what the hook last announced, so the hook stays
//     silent (it fires only for a revert that itself failed).
//
// Apply, Do and the named mutators stage and commit in one call; Stage,
// Commit and Abort are the moments on their own, for a coordinator that
// has a log record to write in between. A single op is the one-op case,
// a move is a delete and a graft, DeleteChildren one delete per child,
// Apply the n-op case: FLUX-style update programs (Cheney) motivate the
// shape — updates compose into a program that is checked as a whole and
// then either taken or dropped.
//
// Atomicity: a statically invalid transaction touches nothing. If an op
// fails at apply time (a labelling overflow, a structural cycle, a
// reference an earlier op detached) or the verification fails, the
// stage reverts itself. One transaction is open at a time: staging
// while one is staged is refused (ErrStaged).

package update

import (
	"errors"
	"fmt"
	"strings"

	"xmldyn/internal/xmltree"
)

// Batch errors.
var (
	ErrEmptyOp  = errors.New("update: batch op has no reference node")
	ErrBadOp    = errors.New("update: unknown batch op kind")
	ErrNoTree   = errors.New("update: batch subtree op has no subtree")
	ErrAttached = errors.New("update: batch subtree is already attached")
	// ErrRollback wraps a revert that itself failed: the document may
	// be partially updated and should be rebuilt from a snapshot.
	ErrRollback = errors.New("update: batch rollback failed")
	// ErrStaged refuses a transaction while another is staged: end that
	// one with Commit or Abort first.
	ErrStaged = errors.New("update: a staged transaction is open")
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

var opKindNames = [...]string{
	OpInsertBefore:        "insert-before",
	OpInsertAfter:         "insert-after",
	OpInsertFirstChild:    "insert-first-child",
	OpAppendChild:         "append-child",
	OpInsertSubtreeBefore: "insert-subtree-before",
	OpInsertSubtreeAfter:  "insert-subtree-after",
	OpInsertSubtreeFirst:  "insert-subtree-first",
	OpAppendSubtree:       "append-subtree",
	OpDelete:              "delete",
	OpSetText:             "set-text",
	OpRename:              "rename",
	OpSetAttr:             "set-attr",
}

// String names the op kind.
func (k OpKind) String() string {
	if k >= 0 && int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
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
// The zero value is not usable; obtain one from Session.Batch. A batch
// handed to a repository build callback is the document's own, emptied
// when the commit returns: it is valid only inside that callback.
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

// AddEncoded queues the ops of an EncodeOps program, decoded against the
// session's document as it stands. After an error the batch holds the
// ops decoded before it.
func (b *Batch) AddEncoded(data []byte) (err error) {
	b.ops, err = appendDecoded(b.ops, b.s.doc, data)
	return err
}

// Reset empties the batch for reuse. The op slots are cleared, so the
// batch keeps no node reachable, and a backing array grown past keep
// ops is let go — with the session's validation marks, which a
// transaction of that many ops may have grown as far.
func (b *Batch) Reset(keep int) {
	clear(b.ops)
	if b.ops = b.ops[:0]; cap(b.ops) > keep {
		b.ops, b.s.marks = nil, nil
	}
}

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

// Apply runs ops as one transaction (see the file comment): all of
// them, verified once as a whole and counted as one operation, or none.
func (s *Session) Apply(ops []Op) (*BatchResult, error) {
	res, err := s.Stage(ops)
	if err == nil {
		s.Commit()
	}
	return res, err
}

// Stage runs ops as one transaction up to its commit and leaves it
// open: validated, applied and verified, but not yet counted or
// announced to the commit hook. The caller ends it with Commit or Abort,
// and until then the session refuses every other transaction
// (ErrStaged). A coordinator (the repository's commit routine) stages
// every document of a cross-document transaction, writes its log record
// and only then commits them all — or aborts them all, so the
// transaction shows everywhere or nowhere. A failed Stage has already
// reverted itself and leaves nothing open; neither does an empty one.
func (s *Session) Stage(ops []Op) (*BatchResult, error) {
	res := &BatchResult{New: make([]*xmltree.Node, len(ops))}
	if err := s.stage(ops, res.New); err != nil {
		return nil, err
	}
	return res, nil
}

// StageReplay is Stage for ops decoded from a log record: nobody reads
// what they create, so no result is built.
func (s *Session) StageReplay(ops []Op) error { return s.stage(ops, nil) }

// Commit ends the staged transaction by keeping it: it counts as one
// operation and one batch, and the commit hook fires. It cannot fail;
// with nothing staged it does nothing.
func (s *Session) Commit() { s.commit(true) }

func (s *Session) commit(batch bool) {
	if !s.staged {
		return
	}
	s.staged = false
	s.ctr.Operations++
	if batch {
		s.ctr.Batches++
	}
	s.notifyCommit()
}

// Abort ends the staged transaction by dropping it (revert): structure,
// labels' order and counters are as Stage found them. An error wraps
// ErrRollback: the document is partially restored and should be rebuilt
// from a snapshot. With nothing staged it does nothing.
func (s *Session) Abort() error {
	if !s.staged {
		return nil
	}
	return s.revert()
}

// transact is a transaction committed as soon as it is staged: the
// single ops' form. created, when non-nil, receives per op the node an
// insert created.
func (s *Session) transact(ops []Op, created []*xmltree.Node) error {
	err := s.stage(ops, created)
	if err == nil {
		s.commit(false)
	}
	return err
}

// stage is the one transaction, up to its commit.
func (s *Session) stage(ops []Op, created []*xmltree.Node) error {
	if s.staged {
		return ErrStaged
	}
	if len(ops) == 0 {
		return nil
	}
	if err := s.validateBatch(ops); err != nil {
		return err
	}
	clear(s.undo)
	s.undo = s.undo[:0]
	s.saved, s.savedMark = s.ctr, s.lab.Stats().Relabelling()
	for i := range ops {
		n, err := s.applyOp(&ops[i])
		if err != nil {
			return s.abort(opError(i, &ops[i], err))
		}
		if created != nil {
			created[i] = n
		}
	}
	if err := s.verifyCommitted(); err != nil {
		return s.abort(fmt.Errorf("update: commit verify: %w", err))
	}
	s.staged = true
	return nil
}

// abort reverts the open transaction and returns the error that ended
// it.
func (s *Session) abort(err error) error {
	if rbErr := s.revert(); rbErr != nil {
		// Keep both chains matchable: the revert's failure and the
		// error that triggered it.
		return fmt.Errorf("%w (after %w)", rbErr, err)
	}
	return err
}

func opError(i int, op *Op, err error) error {
	return fmt.Errorf("update: op %d (%v): %w", i, op.Kind, err)
}

// revert is the one abort: it undoes the open transaction — one that
// failed while being staged, or the staged one. The undo records run in
// reverse; the counters go back to what begin saved — all but Verifies
// and FullVerifies, which are history, not state. The restored
// adjacencies passed before the transaction, and pass now only with the
// labels they had then: if restored nodes were re-labelled, the revert
// failed, or the labelling changed an existing label since begin
// (verified, if at all, beside the transaction's nodes, not beside the
// neighbours it has got back), the next verification is the full pass.
// A clean revert leaves the tree content-equal to what the commit hook
// last announced, so the hook stays silent; a failed one may not have,
// and fires it.
func (s *Session) revert() error {
	var err error
	relabelled := false
	for i := len(s.undo) - 1; i >= 0 && err == nil; i-- {
		switch r := &s.undo[i]; r.kind {
		case undoAttach:
			if labellable(r.n) {
				s.lab.NodeDeleting(r.n)
			}
			r.n.Detach()
		case undoDetach:
			if r.n.Kind() == xmltree.KindAttribute {
				// Attribute order is document order: back to its place.
				err = r.parent.InsertAttrAt(r.idx, r.n)
			} else {
				err = r.parent.InsertChildAt(r.idx, r.n)
			}
			if err == nil && labellable(r.n) {
				relabelled = true
				err = walkLabellable(r.n, s.lab.NodeInserted)
			}
		case undoName:
			r.n.SetName(r.old)
		case undoValue:
			r.n.SetValue(r.old)
		}
	}
	s.staged = false
	s.forgetTouched()
	s.saved.Verifies, s.saved.FullVerifies = s.ctr.Verifies, s.ctr.FullVerifies
	s.ctr = s.saved
	if relabelled || err != nil || s.lab.Stats().Relabelling() != s.savedMark {
		s.baseOK = false
	}
	if err != nil {
		s.notifyCommit()
		return fmt.Errorf("%w: %v", ErrRollback, err)
	}
	return nil
}

// undoRec is one entry of the transaction's undo log: how revert
// reverses one change a primitive made to the tree.
type undoRec struct {
	kind undoKind
	n    *xmltree.Node
	// undoDetach: where n stood — parent's idx-th attribute or child.
	parent *xmltree.Node
	idx    int
	old    string // undoName, undoValue
}

type undoKind uint8

const (
	undoAttach undoKind = iota // n was attached: release its labels, detach it
	undoDetach                 // n was detached: put it back, label it again
	undoName                   // n was renamed
	undoValue                  // n's value was replaced
)

// Marks validateBatch keeps per node: grafted by a subtree op so far,
// target of a delete so far.
const (
	markGrafted uint8 = 1 << iota
	markDoomed
)

// validateBatch rejects statically invalid transactions before any
// mutation. Later ops may still fail at apply time when they depend on
// document state an earlier op changes (e.g. inserting relative to a
// node a previous op deletes); those failures revert.
func (s *Session) validateBatch(ops []Op) error {
	var err error
	for i := range ops {
		if err = s.checkOp(&ops[i], len(ops) > 1); err != nil {
			err = opError(i, &ops[i], err)
			break
		}
	}
	// The marks hold nodes, some of them about to be deleted: none
	// outlives the validation. The emptied map is kept for the next
	// transaction; Batch.Reset bounds how large a one.
	clear(s.marks)
	return err
}

// checkOp validates one op against the transaction's starting tree and,
// when the transaction has other ops to relate it to, marks what it
// grafts or deletes in the session's mark set.
func (s *Session) checkOp(op *Op, multi bool) error {
	if op.Ref == nil {
		return ErrEmptyOp
	}
	switch op.Kind {
	case OpInsertBefore, OpInsertAfter:
		if err := checkSiblingRef(op.Ref); err != nil {
			return err
		}
		return checkName(op.Name)
	case OpInsertFirstChild, OpAppendChild:
		// canContain errors surface at apply time.
		return checkName(op.Name)
	case OpInsertSubtreeBefore, OpInsertSubtreeAfter:
		if err := checkSiblingRef(op.Ref); err != nil {
			return err
		}
		fallthrough
	case OpInsertSubtreeFirst, OpAppendSubtree:
		err := checkBatchSubtree(op, s.marks)
		s.mark(op.Subtree, markGrafted, multi)
		return err
	case OpDelete:
		if op.Ref.Parent() == nil {
			return ErrDetachedRef
		}
		s.mark(op.Ref, markDoomed, multi)
		return nil
	case OpSetText:
		if op.Ref.Kind() != xmltree.KindElement {
			return ErrNotElement
		}
		return nil
	case OpSetAttr:
		if op.Ref.Kind() != xmltree.KindElement {
			return ErrNotElement
		}
		return checkName(op.Name)
	case OpRename:
		if !labellable(op.Ref) {
			return ErrNotElement
		}
		return checkName(op.Name)
	default:
		return fmt.Errorf("%w %d", ErrBadOp, int(op.Kind))
	}
}

// mark notes n in the mark set. The marks relate the ops of one
// transaction to each other, so a single op (multi false) sets none.
func (s *Session) mark(n *xmltree.Node, m uint8, multi bool) {
	if !multi {
		return
	}
	if s.marks == nil {
		s.marks = make(map[*xmltree.Node]uint8)
	}
	s.marks[n] |= m
}

// checkName accepts what can stand as an element or attribute name in
// the serialised document and be read back as the same name.
func checkName(name string) error {
	if name == "" || strings.ContainsAny(name, " \t\r\n<>&\"'/=") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// checkBatchSubtree validates a subtree op's root, rejecting the same
// root grafted twice in one batch. The root must be detached — or be
// the exact target of an earlier OpDelete in the same batch, which is
// how a batch expresses a move (delete then re-graft: by the time the
// graft applies, the delete has detached it).
func checkBatchSubtree(op *Op, marks map[*xmltree.Node]uint8) error {
	if op.Subtree == nil {
		return ErrNoTree
	}
	if m := marks[op.Subtree]; (op.Subtree.Parent() != nil && m&markDoomed == 0) || m&markGrafted != 0 {
		return ErrAttached
	}
	if op.Subtree.Kind() != xmltree.KindElement {
		return ErrNotElement
	}
	return nil
}

// attached reports whether n is reachable from the session's document
// node: a node whose ancestor chain dead-ends below the document is
// inside a subtree some earlier op detached.
func (s *Session) attached(n *xmltree.Node) bool {
	return n != nil && n.Root() == s.doc.Node()
}

// applyOp applies one op of the open transaction and returns the node
// an insert created. The op's reference must still be attached to the
// document: pre-validation only sees the transaction's starting state,
// so a ref inside a subtree an earlier op deleted — or one that never
// was in this document — is caught here; otherwise the op would
// silently mutate a detached subtree.
func (s *Session) applyOp(op *Op) (*xmltree.Node, error) {
	if !s.attached(op.Ref) {
		return nil, ErrDetachedRef
	}
	switch op.Kind {
	case OpInsertBefore, OpInsertAfter, OpInsertFirstChild, OpAppendChild:
		n := xmltree.NewElement(op.Name)
		return n, s.graft(op, n)
	case OpInsertSubtreeBefore, OpInsertSubtreeAfter, OpInsertSubtreeFirst, OpAppendSubtree:
		return nil, s.graft(op, op.Subtree)
	case OpDelete:
		s.detach(op.Ref)
		return nil, nil
	case OpSetText:
		return nil, s.setText(op.Ref, op.Value)
	case OpRename:
		return nil, s.rename(op.Ref, op.Name)
	default: // OpSetAttr: validateBatch admits no other kind
		return nil, s.setAttr(op.Ref, op.Name, op.Value)
	}
}

// graft attaches n where op says and labels its subtree.
func (s *Session) graft(op *Op, n *xmltree.Node) error {
	var err error
	switch op.Kind {
	case OpInsertBefore, OpInsertSubtreeBefore:
		err = xmltree.InsertBefore(op.Ref, n)
	case OpInsertAfter, OpInsertSubtreeAfter:
		err = xmltree.InsertAfter(op.Ref, n)
	case OpInsertFirstChild, OpInsertSubtreeFirst:
		err = op.Ref.PrependChild(n)
	default:
		err = op.Ref.AppendChild(n)
	}
	if err != nil {
		return err
	}
	return s.label(n)
}

// label labels the freshly attached subtree at root, node by node in
// document order. The undo record goes first: a labelling that refuses
// partway leaves a partly labelled, attached subtree for revert.
func (s *Session) label(root *xmltree.Node) error {
	s.undo = append(s.undo, undoRec{kind: undoAttach, n: root})
	err := walkLabellable(root, func(n *xmltree.Node) error {
		s.ctr.Inserts++
		return s.lab.NodeInserted(n)
	})
	if err != nil {
		return fmt.Errorf("update: label %s: %w", s.lab.Name(), err)
	}
	s.noteLabelled(root)
	return nil
}

// detach releases the labels of the subtree at n, if it has any, and
// detaches it, remembering where it stood.
func (s *Session) detach(n *xmltree.Node) {
	s.undo = append(s.undo, undoRec{kind: undoDetach, n: n, parent: n.Parent(), idx: n.Index()})
	if labellable(n) {
		s.ctr.Deletes += int64(countLabellable(n))
		s.noteDeleting(n)
		s.lab.NodeDeleting(n)
	}
	n.Detach()
}

func (s *Session) setText(e *xmltree.Node, text string) error {
	// Backwards: detaching a child shifts only the ones after it.
	kids := e.Children()
	for i := len(kids) - 1; i >= 0; i-- {
		if kids[i].Kind() == xmltree.KindText {
			s.detach(kids[i])
		}
	}
	if text != "" {
		t := xmltree.NewText(text)
		if err := e.AppendChild(t); err != nil {
			return err
		}
		s.undo = append(s.undo, undoRec{kind: undoAttach, n: t})
	}
	s.ctr.ContentUpdates++
	return nil
}

func (s *Session) rename(n *xmltree.Node, name string) error {
	if n.Kind() == xmltree.KindAttribute {
		for _, a := range n.Parent().Attributes() {
			if a != n && a.Name() == name {
				return fmt.Errorf("%w: %q", ErrDupAttr, name)
			}
		}
	}
	s.undo = append(s.undo, undoRec{kind: undoName, n: n, old: n.Name()})
	n.SetName(name)
	s.ctr.ContentUpdates++
	return nil
}

func (s *Session) setAttr(e *xmltree.Node, name, value string) error {
	old, existed := e.Attr(name)
	a, err := e.SetAttr(name, value)
	if err != nil {
		return err
	}
	if existed {
		s.undo = append(s.undo, undoRec{kind: undoValue, n: a, old: old})
		s.ctr.ContentUpdates++
		return nil
	}
	return s.label(a)
}
