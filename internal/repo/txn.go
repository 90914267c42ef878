// The one transaction routine. Every mutation of document trees — in
// memory (Repository.Batch/MultiBatch), logged
// (DurableRepository.Batch/MultiBatch), replayed at recovery or applied
// on a follower (applyRecord) — is a call of Repository.commit, and
// every one is an op list queued under the write lock; the callers
// differ only in where the ops come from and in the log policy they
// pass. The commit critical section, the
// lock order, the encode-before-apply rule, the log-before-memory rule
// and the poisoning rule are therefore each stated here and nowhere
// else. Below it, each document's part is one transaction of the update
// layer, taken in its three moments (update.Session.Stage: validate,
// apply, verify; then Commit or Abort); what commit adds is the locks,
// the log record written between the stages and the commits, and the
// composition of those transactions into one that commits on every
// document or on none.
//
// A transaction is carried on slices parallel to the locked documents,
// and what carries it is not allocated per commit: the MultiDocs are the
// caller's (an array of one on its stack, for a single document: batch,
// repo.go), the other slices sit in arrays on commit's stack, and the op
// queue and the byte buffer belong to each document (docScratch),
// guarded by the write lock commit holds anyway. A commit allocates what
// it creates — nodes and labels — and hands back only how many elements
// it inserted: the new state is read through Query, View or a Snapshot.
// Only the MultiBatch build callback is handed a map, and commitByName
// (repo.go) builds it around this routine.
// (File comment — the package doc lives in repo.go.)

package repo

import (
	"errors"
	"fmt"
	"slices"

	"xmldyn/internal/update"
)

// logPolicy is what a transaction does about the write-ahead log. The
// zero value is policy none: the in-memory Repository logs nothing, and
// neither does a replayed record (applyRecord), which is already in the
// log — recovery reads it from there, a follower appends it before
// applying and keeps its own position.
type logPolicy struct {
	// leader selects policy append: the transaction runs inside the
	// leader's commit protocol (commitMu shared, refused while closed or
	// poisoned) and, once staged, is appended to its log as one record
	// of type kind — RecBatch or RecMulti — holding every non-empty
	// part; an empty transaction logs nothing.
	leader *DurableRepository
	kind   byte
}

// inlineDocs is how many documents a transaction carries in arrays on
// the committing goroutine's stack; a wider one allocates its carriers.
const inlineDocs = 4

// scratchBytes bounds what a document keeps of its commit scratch from
// one commit to the next: an op queue or a byte buffer that a transaction
// grew past it is let go when that commit returns. The log holds its
// frame buffer to the same (maxKeptFrame, internal/wal/wal.go).
const scratchBytes = 64 << 10

// docScratch is what a commit on a document needs and would otherwise
// allocate each time. It is the document's, read and written only under
// its write lock — which commit holds from before build until after the
// last use — so two commits never share it; and since it is per lock
// holder, a transaction has it only for as long as it has the lock.
type docScratch struct {
	// batch queues the document's ops: what build is handed. Emptied at
	// both ends of every commit.
	batch *update.Batch
	// buf holds the op program encoded for the log and, behind the first
	// document's, the record assembled from the programs. The log copies
	// what it is handed, so nothing reads buf once Append has returned.
	buf []byte
}

// scratchLocked returns the commit scratch of d, whose write lock the
// caller holds.
func (d *Doc) scratchLocked() *docScratch {
	return &d.scratch //xmldynvet:ignore lockheld the caller holds d.mu: lockLiveSorted took it, unlockDocs has not yet released it
}

// reset empties the scratch, at both ends of every commit: at the end so
// that no slot keeps a node of the finished transaction alive and
// nothing grown past scratchBytes stays; at the start so that what a
// caller queued on a batch it kept past its build is not committed.
func (sc *docScratch) reset() {
	sc.batch.Reset(scratchBytes / 64) // an update.Op is 56 bytes
	if sc.buf = sc.buf[:0]; cap(sc.buf) > scratchBytes {
		sc.buf = nil
	}
}

// commit runs one transaction over the named documents:
//
//  1. write-lock them in sorted-name order (lockLiveSorted), inside the
//     leader's commitMu when the policy appends — the one lock order,
//     commitMu → doc.mu, that keeps a checkpoint cut or a Close from
//     interleaving with a half-logged commit;
//  2. build: the caller queues each document's ops on its MultiDoc — a
//     user callback, or the decode of a parsed record, either way
//     against the locked trees. mds is the caller's, with room for one
//     per name: commit fills mds[:n], one per document in lock order
//     (a repeated name leaves room unused), and calls build(n). The
//     batches are the documents' own scratch (docScratch): build must
//     not keep them;
//  3. under policy append, serialise the ops (update.AppendOps, into the
//     document's buffer) against the PRE-transaction trees: structural
//     paths must address the state replay will resolve them against;
//  4. stage every document's part, in order (update.Session.Stage:
//     validated, applied, verified, and shown to no one — counters,
//     Doc.Version and every pin still read the pre-transaction state);
//  5. under policy append, assemble the one record behind the first
//     document's program and append it while the locks are still held,
//     so per-document log order equals commit order. The log serialises
//     writes internally and no walMu is taken: commits on other
//     documents keep going and, under grouped sync, share the in-flight
//     fsync;
//  6. if 4 or 5 failed, abort what is staged, in reverse; otherwise
//     commit every document's non-empty part, which cannot fail, and
//     advance its version (Doc.advance): that is what shows the
//     transaction, and the next pin publishes it. Every involved write
//     lock is still held, so a snapshot shows the transaction on all its
//     documents or on none. A document whose revert failed — in its own
//     Stage or in an abort — advances too: its tree may be a state no
//     commit produced, and no pin may go on reading the one before.
//
// So the log is written before memory shows anything, for every policy,
// and a commit that returns an error was never visible: a failed build,
// encode or stage leaves every tree and the log as they were, and a
// failed append leaves every tree as it was. Two outcomes poison the
// leader here — it refuses commits with ErrWALFailed until a Checkpoint
// cuts a fresh segment and re-captures full memory state: the append
// failed (a failed write or fsync does not say whether the bytes
// landed, so the log may hold a record memory does not), or an abort
// itself failed (update.ErrRollback) and left a tree that replaying the
// log does not produce. The one other site that poisons is the registry:
// DurableRepository.Open and Drop (durable.go) append their RecOpen or
// RecDrop record outside this routine, and poison the leader the same
// way when that append fails, before the name space changes.
//
// It returns the number of elements the transaction inserted, summed
// over its documents, and 0 with any error.
func (r *Repository) commit(names []string, pol logPolicy, mds []MultiDoc, build func(n int) error) (int, error) {
	ld := pol.leader
	if ld != nil {
		ld.commitMu.RLock()
		defer ld.commitMu.RUnlock()
		if ld.closed {
			return 0, ErrClosed
		}
	}
	var heldArr [inlineDocs]*Doc
	held, err := r.lockLiveSorted(names, heldArr[:0])
	if err != nil {
		return 0, err
	}
	defer unlockDocs(held)
	if ld != nil {
		if err := ld.checkFailed(); err != nil {
			return 0, err
		}
	}
	for i, d := range held {
		sc := d.scratchLocked()
		sc.reset()
		mds[i] = MultiDoc{doc: d, b: sc.batch}
	}
	if err := build(len(held)); err != nil {
		return 0, err
	}
	var partArr [inlineDocs]recordPart
	rec := record{kind: pol.kind, parts: partArr[:0]}
	if ld != nil {
		for _, d := range held {
			if sc := d.scratchLocked(); sc.batch.Len() > 0 {
				if sc.buf, err = update.AppendOps(sc.buf[:0], d.sess.Document(), sc.batch.Ops()); err != nil {
					return 0, err
				}
				rec.parts = append(rec.parts, recordPart{d.name, sc.buf})
			}
		}
	}
	staged, inserted := 0, 0 // held[:staged] have an open transaction
	for ; staged < len(held); staged++ {
		d := held[staged]
		var n int
		if n, err = d.sess.Stage(mds[staged].b.Ops()); err != nil {
			if errors.Is(err, update.ErrRollback) {
				d.advance()
			}
			err = fmt.Errorf("repo: transaction on %q: %w", d.name, err)
			break // d reverted itself
		}
		inserted += n
	}
	logged := err == nil && len(rec.parts) > 0
	if logged {
		sc := held[0].scratchLocked()
		programs := len(sc.buf)
		sc.buf = appendRecord(sc.buf, rec)
		err = ld.log.Append(sc.buf[programs:])
	}
	if err != nil {
		for staged--; staged >= 0; staged-- {
			// Keep unwinding past a failed abort — the other documents'
			// are independent and restoring them is strictly better — but
			// surface it (it wraps ErrRollback): THAT document is
			// partially restored and should be rebuilt from a snapshot.
			if rbErr := held[staged].sess.Abort(); rbErr != nil {
				held[staged].advance()
				err = fmt.Errorf("repo: transaction rollback of %q: %w (after %w)", held[staged].name, rbErr, err)
			}
		}
		if ld != nil && (logged || errors.Is(err, update.ErrRollback)) {
			err = ld.poison(err)
		}
		return 0, err
	}
	for i, d := range held {
		if mds[i].b.Len() > 0 {
			d.sess.Commit()
			d.advance()
		}
	}
	if logged {
		ld.nudgeAutoCheckpoint()
	}
	return inserted, nil
}

// lockLiveSorted write-locks the named documents in sorted-name order
// (duplicates collapsed) — the same single global order Save uses, so
// multi-document writers cannot deadlock against each other, against
// Save, or against anything holding one document lock — and re-checks,
// under each lock, that the locked slot is still the one serving its
// name: a slot swapped between lookup and lock (dropped, or dropped and
// reopened under the same name) is released and looked up again, so the
// caller's commit lands on the live document. The documents are returned
// in held, which the caller passes empty. An unknown name fails with
// ErrNotFound, no lock held.
func (r *Repository) lockLiveSorted(names []string, held []*Doc) ([]*Doc, error) {
	var arr [inlineDocs]string
	names = sortedUnique(arr[:0], names)
	for len(held) < len(names) {
		name := names[len(held)]
		d, err := r.served(name)
		if err != nil {
			unlockDocs(held)
			return nil, err
		}
		d.mu.Lock()
		if cur, _ := lookup(r, name); cur == d {
			held = append(held, d)
		} else {
			d.mu.Unlock()
		}
	}
	return held, nil
}

// unlockDocs ends what lockLiveSorted began, each document's commit
// scratch emptied first — however the transaction ended.
func unlockDocs(held []*Doc) {
	for _, d := range held {
		d.scratchLocked().reset()
		d.mu.Unlock()
	}
}

// sortedUnique appends names to dst and returns them sorted with
// duplicates collapsed.
func sortedUnique(dst, names []string) []string {
	dst = append(dst, names...)
	slices.Sort(dst)
	return slices.Compact(dst)
}
