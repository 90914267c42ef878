// The one transaction routine. Every mutation of document trees by
// queued ops — in memory (Doc.Batch, Repository.Batch/MultiBatch),
// logged (DurableRepository.Batch/Update/MultiBatch), replayed at
// recovery or applied on a follower (applyRecord) — is a call of
// Repository.commit; the callers differ only in where the ops come from
// and in the log policy they pass. The commit critical section, the
// lock order, the encode-before-apply rule, the log-before-memory rule
// and the poisoning rule are therefore each stated here and nowhere
// else. Below it, each document's part is one transaction of the update
// layer, taken in its three moments (update.Session.Stage: validate,
// apply, verify; then Commit or Abort); what commit adds is the locks,
// the log record written between the stages and the commits, and the
// composition of those transactions into one that commits on every
// document or on none.
// (File comment — the package doc lives in repo.go.)

package repo

import (
	"errors"
	"fmt"
	"slices"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// logPolicy is what a transaction does about the write-ahead log. The
// zero value is policy none: the in-memory Repository logs nothing.
type logPolicy struct {
	// leader selects policy append: the transaction runs inside the
	// leader's commit protocol (commitMu shared, refused while closed or
	// poisoned) and, once staged, is appended to its log as one record
	// of type kind — RecBatch or RecMulti — holding every non-empty
	// part; an empty transaction logs nothing.
	leader *DurableRepository
	kind   byte
	// replay selects policy replay: the ops were decoded from a record
	// that is already in the log (recovery reads it from there, a
	// follower appends it before applying and keeps its own position),
	// so nothing is written and no results are handed back.
	replay bool
}

// commit runs one transaction over the named documents:
//
//  1. write-lock them in sorted-name order (lockLiveSorted), inside the
//     leader's commitMu when the policy appends — the one lock order,
//     commitMu → doc.mu, that keeps a checkpoint cut or a Close from
//     interleaving with a half-logged commit;
//  2. build: the caller queues each document's ops on its MultiDoc — a
//     user callback, or the decode of a parsed record, either way
//     against the locked trees;
//  3. under policy append, serialise the ops (update.EncodeOps) against
//     the PRE-transaction trees: structural paths must address the state
//     replay will resolve them against;
//  4. stage every document's part, in order (update.Session.Stage:
//     validated, applied, verified, and shown to no one — counters,
//     Doc.Version, Stamp and every snapshot still read the
//     pre-transaction state);
//  5. under policy append, append the one record while the locks are
//     still held, so per-document log order equals commit order. The log
//     serialises writes internally and no walMu is taken: commits on
//     other documents keep going and, under grouped sync, share the
//     in-flight fsync;
//  6. if 4 or 5 failed, abort what is staged, in reverse; otherwise
//     commit every document's part, which cannot fail and is what
//     publishes the transaction.
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
// log does not produce.
//
// The results map one entry per name, created nodes as detached deep
// copies (the live tree must only be touched under its lock, which is
// released on return).
func (r *Repository) commit(names []string, pol logPolicy, build func(map[string]*MultiDoc) error) (map[string]*update.BatchResult, error) {
	ld := pol.leader
	if ld != nil {
		ld.commitMu.RLock()
		defer ld.commitMu.RUnlock()
		if ld.closed {
			return nil, ErrClosed
		}
	}
	held, err := r.lockLiveSorted(names)
	if err != nil {
		return nil, err
	}
	defer unlockDocs(held)
	if ld != nil {
		if err := ld.checkFailed(); err != nil {
			return nil, err
		}
	}
	m := make(map[string]*MultiDoc, len(held))
	for _, d := range held {
		m[d.name] = &MultiDoc{doc: d, b: d.sess.Batch()}
	}
	if err := build(m); err != nil {
		return nil, err
	}
	rec := record{kind: pol.kind}
	if ld != nil {
		for _, d := range held {
			if b := m[d.name].b; b.Len() > 0 {
				data, err := update.EncodeOps(d.sess.Document(), b.Ops())
				if err != nil {
					return nil, err
				}
				rec.parts = append(rec.parts, recordPart{d.name, data})
			}
		}
	}
	out := make(map[string]*update.BatchResult, len(held))
	staged := 0 // held[:staged] have an open transaction
	for ; staged < len(held); staged++ {
		d := held[staged]
		res, stageErr := d.sess.Stage(m[d.name].b.Ops())
		if stageErr != nil {
			err = fmt.Errorf("repo: transaction on %q: %w", d.name, stageErr)
			break // d reverted itself
		}
		if !pol.replay {
			out[d.name] = cloneResult(res)
		}
	}
	logged := err == nil && len(rec.parts) > 0
	if logged {
		err = ld.log.Append(appendRecord(nil, rec))
	}
	if err != nil {
		for staged--; staged >= 0; staged-- {
			// Keep unwinding past a failed abort — the other documents'
			// are independent and restoring them is strictly better — but
			// surface it (it wraps ErrRollback): THAT document is
			// partially restored and should be rebuilt from a snapshot.
			if rbErr := held[staged].sess.Abort(); rbErr != nil {
				err = fmt.Errorf("repo: transaction rollback of %q: %w (after %w)", held[staged].name, rbErr, err)
			}
		}
		if ld != nil && (logged || errors.Is(err, update.ErrRollback)) {
			err = ld.poison(err)
		}
		return nil, err
	}
	for _, d := range held {
		d.sess.Commit()
	}
	if logged {
		ld.nudgeAutoCheckpoint()
	}
	return out, nil
}

// lockLiveSorted write-locks the named documents in sorted-name order
// (duplicates collapsed) — the same single global order Save uses, so
// multi-document writers cannot deadlock against each other, against
// Save, or against anything holding one document lock — and re-checks,
// under each lock, that the locked slot is still the one serving its
// name: a slot swapped between lookup and lock (dropped, or dropped and
// reopened under the same name) is released and looked up again, so the
// caller's commit lands on the live document. An unknown name fails
// with ErrNotFound, no lock held.
func (r *Repository) lockLiveSorted(names []string) ([]*Doc, error) {
	uniq := sortedUnique(names)
	held := make([]*Doc, 0, len(uniq))
	for len(held) < len(uniq) {
		name := uniq[len(held)]
		d, ok := r.Get(name)
		if !ok {
			unlockDocs(held)
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		d.mu.Lock()
		if cur, _ := r.Get(name); cur == d {
			held = append(held, d)
		} else {
			d.mu.Unlock()
		}
	}
	return held, nil
}

func unlockDocs(held []*Doc) {
	for _, d := range held {
		d.mu.Unlock()
	}
}

// sortedUnique returns names sorted with duplicates collapsed.
func sortedUnique(names []string) []string {
	uniq := slices.Clone(names)
	slices.Sort(uniq)
	return slices.Compact(uniq)
}

// cloneResult detaches a BatchResult's created nodes.
func cloneResult(res *update.BatchResult) *update.BatchResult {
	out := &update.BatchResult{New: make([]*xmltree.Node, len(res.New))}
	for i, n := range res.New {
		if n != nil {
			out.New[i] = n.Clone()
		}
	}
	return out
}
