// The leader role of the durable core (core.go): the Repository's
// batched transactions backed by a segmented write-ahead log, so every
// committed batch survives a crash and recovery replays snapshots + log
// back to the exact committed state (labels, order and attributes
// included — replay re-runs the same deterministic op stream the live
// session ran), with recovery cost bounded by the live log suffix, not
// the full history:
// a background auto-checkpoint folds the log into a fresh pack
// whenever live log bytes pass a threshold and retires the dead
// segments. Checkpoints are incremental — one pack file holds the
// records of the documents that changed since the previous checkpoint,
// each serialised from a pinned persistent version (so writers are
// never blocked while state is encoded), and references the records of
// every other document in the older packs that hold them. Recovery is
// parallel: the records decode on a bounded worker pool and WAL replay
// is partitioned by document (wal.ReplayPartitioned; RecMulti is the
// barrier record). docs/DURABILITY.md specifies the on-disk format and
// recovery protocol in full; docs/OPERATIONS.md is the field guide.
//
// Directory layout (the newest pack is the current state: it names
// every document's record and the first live segment; generations and
// segment indices are global and never reused):
//
//	ckpt-NNNNNN.pack  store version-10 packs: the current one, and the
//	                  older ones it references
//	wal-NNNNNNNN.log  numbered log segments; commits since the current pack
//
// Locking protocol, outermost first (see docs/ARCHITECTURE.md):
//
//	ckptMu    serialises whole checkpoints (which release commitMu
//	          between their phases) and bootstrap image reads
//	          (BootstrapImage), and guards each Doc's checkpoint state
//	commitMu  (the core's) writers share-lock it; Close and checkpoint
//	          phases 1 and 3 take it exclusively, so a cut or a pack
//	          switch never interleaves with a half-appended commit.
//	          Checkpoint's encode phase holds NO lock: writers keep
//	          committing while pinned versions serialise
//	doc.mu    per-document writer serialisation, as in Repository. The
//	          one commit routine (txn.go) takes every document of a
//	          transaction in sorted-name order — the same single global
//	          order Save uses, so writers cannot deadlock against each
//	          other or against Save — and appends the transaction's
//	          record while they are held, so per-document log order
//	          equals commit order (the log file itself serialises
//	          cross-document writes internally)
//	walMu     serialises registry records (Open/Drop), whose
//	          check-append-register sequence must be atomic
//	shard.mu  name-space lookups, innermost
//
// Mutations must go through the DurableRepository methods — the inner
// Repository and its Docs are deliberately not exposed, because a
// mutation that bypasses the log would be silently lost at recovery.
// Recovery, the record applier and the read API are the durable core's
// (core.go), shared with the follower role; the record layouts are
// record.go's.
// (File comment — the package doc lives in repo.go.)

package repo

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// Durable repository errors.
var (
	// ErrClosed reports use of a closed durable repository.
	ErrClosed = errors.New("repo: durable repository is closed")
	// ErrReplay wraps a recovery failure: the packs or the log could
	// not be read back into a consistent repository.
	ErrReplay = errors.New("repo: wal replay failed")
	// ErrWALFailed reports a commit whose record could not be appended
	// to the log — the commit was aborted before memory showed it, but
	// the log may hold its bytes — or whose abort itself failed. The
	// repository refuses further durable commits until a Checkpoint
	// cuts a fresh segment and captures memory.
	ErrWALFailed = errors.New("repo: wal append failed; checkpoint to recover")
)

// DefaultAutoCheckpointBytes is the auto-checkpoint threshold used
// when DurableOptions.AutoCheckpointBytes is zero: once live log bytes
// pass it, the background checkpointer folds the log into a fresh
// snapshot and deletes the dead segments, bounding recovery time.
const DefaultAutoCheckpointBytes = 16 << 20

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Sync is the WAL fsync policy (default wal.SyncGrouped).
	Sync wal.SyncPolicy
	// FlushInterval overrides the async policy's background fsync
	// period (the crash loss window).
	FlushInterval time.Duration
	// SegmentBytes is the WAL segment rotation threshold: an append
	// that would grow the active segment past it seals the segment and
	// starts a new one. Zero means wal.DefaultSegmentBytes; negative
	// disables rotation (one ever-growing segment).
	SegmentBytes int64
	// AutoCheckpointBytes arms the background auto-checkpoint: when
	// live log bytes (across all segments) exceed it, a checkpoint runs
	// off the commit path, folding the log into a fresh pack and
	// deleting dead segments. Zero means DefaultAutoCheckpointBytes;
	// negative disables auto-checkpointing (Checkpoint remains
	// available manually).
	AutoCheckpointBytes int64
}

func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{Policy: o.Sync, FlushInterval: o.FlushInterval, SegmentBytes: o.SegmentBytes}
}

func (o DurableOptions) autoCheckpointBytes() int64 {
	if o.AutoCheckpointBytes != 0 {
		return o.AutoCheckpointBytes
	}
	return DefaultAutoCheckpointBytes
}

// DurableRepository is the leader role of the durable core: a
// repository whose commits are write-ahead logged. Reads (View, Query,
// QueryFunc, Names, Len, Verify, Snapshot, …) are the core's, served by
// the in-memory repository exactly as in Repository; every mutation
// (Open, Drop, Batch, MultiBatch) is appended to the log before
// the per-document write lock is released, and Checkpoint — invoked
// manually or by the background auto-checkpointer once live log bytes
// pass the configured threshold — folds the log into a fresh pack
// and deletes the dead segments. A DurableRepository must be owned by
// one process at a time; there is no cross-process file locking.
type DurableRepository struct {
	durableCore

	// walMu serialises registry-record appends. Batch appends do not
	// take it: their order is already fixed by doc.mu, and holding a
	// lock across a grouped append would serialise the very commits
	// group fsync exists to overlap.
	walMu sync.Mutex
	// failed is the sticky WAL-failure cause behind ErrWALFailed: set by
	// the commit that could not append, cleared by the Checkpoint whose
	// cut observed it.
	failed atomic.Pointer[error]

	// ckptMu serialises whole checkpoints: Checkpoint releases
	// commitMu between its cut, encode and switch phases, so without
	// it two concurrent checkpoints could compute the same generation.
	// It also guards every Doc's checkpoint state (Doc.ckpt) and the
	// core's pack sizes, and BootstrapImage holds it so no pack switch
	// or sweep can interleave with an image read.
	ckptMu sync.Mutex

	// Auto-checkpoint: a committer that finds live log bytes past the
	// threshold starts one goroutine to checkpoint off the commit path,
	// unless one is running (autoRunning). Close waits for it on ckptWG.
	autoRunning atomic.Bool
	ckptWG      sync.WaitGroup
	autoMu      sync.Mutex
	autoRuns    uint64 // completed auto-checkpoints
	autoErr     error  // last auto-checkpoint failure, nil after a success

	// Replication hooks (docs/REPLICATION.md): segment pins keep a
	// suffix of the WAL set alive across checkpoints while a shipper
	// streams it, and notify channels wake tailing shippers after every
	// durable append and checkpoint cut.
	pinMu  sync.Mutex
	pinSeq uint64            // guarded by pinMu
	pins   map[uint64]uint64 // pin id → lowest retained segment; guarded by pinMu
	// notifyMu guards notify.
	notifyMu sync.Mutex
	notify   []chan<- struct{}
}

// OpenDurable opens (creating if necessary) the durable repository in
// dir by running the core's recovery (durableCore.recover): the packs'
// records and WAL replay on a worker pool bounded by GOMAXPROCS, a torn
// tail tolerated only on the last segment and truncated so new commits
// extend the last valid record, files the current pack does not cover
// removed. A directory with no pack is initialised first — an empty
// log starting at segment 1, then the generation-1 pack with no
// document that makes it current (a crash before the pack lands leaves
// no pack, so the next OpenDurable simply initialises again) — and then
// recovered like any other. A directory in the per-file layout packs
// replaced is refused with ErrReplay and left as it is.
func OpenDurable(dir string, opts DurableOptions) (*DurableRepository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DurableRepository{durableCore: durableCore{dir: dir, opts: opts}}
	err := d.recover()
	if errors.Is(err, fs.ErrNotExist) {
		// A fresh directory: an empty log at segment 1, then the
		// generation-1 pack naming it.
		if err = emptySegment(dir, 1, opts.walOptions()); err == nil {
			err = store.WriteFileAtomic(filepath.Join(dir, store.PackName(1)), store.MarshalPack(&store.Pack{Gen: 1, WALFirst: 1}, nil))
		}
		if err == nil {
			err = d.recover()
		}
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// nudgeAutoCheckpoint starts an auto-checkpoint if live log bytes passed
// the threshold and none is running, and nudges replication shippers
// unconditionally (a record just became durable for them to stream).
// Called by committers after a successful append, under commitMu's read
// side: d.log is stable, and the ckptWG.Add comes before Close's shut
// takes the write side, so Close's Wait sees it.
func (d *DurableRepository) nudgeAutoCheckpoint() {
	d.nudgeShippers()
	threshold := d.opts.autoCheckpointBytes()
	if threshold <= 0 || d.log.LiveBytes() < threshold || !d.autoRunning.CompareAndSwap(false, true) {
		return
	}
	d.ckptWG.Add(1)
	go d.autoCheckpoint(threshold)
}

// autoCheckpoint re-checks the live-bytes threshold (a manual
// checkpoint may have run since the nudge) and, if it is still passed,
// checkpoints. A failure is recorded for AutoCheckpoints and retried by
// the next commit that finds the threshold passed; a closed repository
// is no failure.
func (d *DurableRepository) autoCheckpoint(threshold int64) {
	defer d.ckptWG.Done()
	defer d.autoRunning.Store(false)
	if size, ok := d.LogSize(); !ok || size < threshold {
		return
	}
	err := d.Checkpoint()
	d.autoMu.Lock()
	defer d.autoMu.Unlock()
	switch {
	case err == nil:
		d.autoRuns++
		d.autoErr = nil
	case !errors.Is(err, ErrClosed):
		d.autoErr = err
	}
}

// --- mutations ---------------------------------------------------------------

// Open labels doc under the named scheme, registers it and logs the
// registration (name, scheme and the full initial tree image), so
// recovery can rebuild documents opened since the last checkpoint.
func (d *DurableRepository) Open(name string, doc *xmltree.Document, scheme string) error {
	if name == "" {
		return ErrEmptyName
	}
	if _, dup := lookup(d.repo(), name); dup { // before doc is labelled a second time
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	sess, err := newSchemeSession(doc, scheme)
	if err != nil {
		return err
	}
	payload := appendRecord(nil, record{kind: RecOpen, scheme: scheme, parts: []recordPart{{name, update.EncodeDocTree(doc)}}})

	d.commitMu.RLock()
	defer d.commitMu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	d.walMu.Lock()
	defer d.walMu.Unlock()
	if err := d.checkFailed(); err != nil {
		return err
	}
	if _, dup := lookup(d.repo(), name); dup {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if err := d.log.Append(payload); err != nil {
		return d.poison(err)
	}
	err = d.repo().add(name, scheme, sess)
	d.nudgeAutoCheckpoint()
	return err
}

// Drop removes the named document and logs the removal. It reports
// whether the document existed.
func (d *DurableRepository) Drop(name string) (bool, error) {
	d.commitMu.RLock()
	defer d.commitMu.RUnlock()
	if d.closed {
		return false, ErrClosed
	}
	// Hold the document's write lock across the append so no batch on
	// this document can slip its record after the drop record.
	var one [1]*Doc
	held, err := d.repo().lockLiveSorted([]string{name}, one[:0])
	if err != nil {
		return false, nil
	}
	defer unlockDocs(held)
	d.walMu.Lock()
	defer d.walMu.Unlock()
	if err := d.checkFailed(); err != nil {
		return false, err
	}
	if err := d.log.Append(appendRecord(nil, record{kind: RecDrop, parts: []recordPart{{name: name}}})); err != nil {
		return false, d.poison(err)
	}
	d.nudgeAutoCheckpoint()
	return d.repo().Drop(name), nil
}

// Batch is Repository.Batch under the append policy (commit, txn.go):
// the queued ops are serialised against the pre-batch tree, staged with
// the update layer's pre-validation and order verification, appended to
// the log as one RecBatch record, and only then committed — all before
// the lock is released. On a staging error nothing is logged, on an
// append error (ErrWALFailed) nothing is committed, and either way the
// document is untouched.
//
// build receives the document (not the session) deliberately: every
// mutation must be expressed as a queued op so it is logged — a direct
// session call inside the callback would commit in memory, be missing
// from the log, and silently shift the structural paths of every later
// record.
func (d *DurableRepository) Batch(name string, build func(*xmltree.Document, *update.Batch) error) (int, error) {
	return d.repo().batch(name, logPolicy{leader: d, kind: RecBatch}, build)
}

// MultiBatch is Repository.MultiBatch under the append policy: the
// whole transaction is ONE RecMulti record holding every document that
// queued ops, so a crash either preserves the entire transaction or
// tears the entire record off the log tail; recovery can never replay
// a subset of the involved documents. As in Batch, build receives
// trees, not sessions, and what it receives is valid only inside it.
func (d *DurableRepository) MultiBatch(names []string, build func(map[string]*MultiDoc) error) (int, error) {
	return d.repo().commitByName(names, logPolicy{leader: d, kind: RecMulti}, build)
}

// checkFailed refuses commits after a WAL append failure.
func (d *DurableRepository) checkFailed() error {
	if cause := d.failed.Load(); cause != nil {
		return fmt.Errorf("%w: %v", ErrWALFailed, *cause)
	}
	return nil
}

// poison records the cause of a divergence between memory and log
// (sticky until Checkpoint).
func (d *DurableRepository) poison(cause error) error {
	d.failed.Store(&cause)
	return fmt.Errorf("%w: %w", ErrWALFailed, cause)
}

// --- log gauges --------------------------------------------------------------

// LogSize returns the live write-ahead-log bytes across every segment
// — the recovery-cost signal the auto-checkpointer watches, also
// available to callers that checkpoint manually by log growth. ok is
// false on a closed repository: there is no live log to measure, and
// a zero must not be misread as "empty log" (docs/OPERATIONS.md).
func (d *DurableRepository) LogSize() (size int64, ok bool) {
	d.commitMu.RLock()
	defer d.commitMu.RUnlock()
	if d.closed {
		return 0, false
	}
	return d.log.LiveBytes(), true
}

// SegmentRange returns the first live and the active (append) WAL
// segment indices; the live set is every segment in between,
// inclusive. First advances at checkpoints, active at rotations. ok
// is false on a closed repository: the indices are meaningless then,
// not a collapsed one-segment range.
func (d *DurableRepository) SegmentRange() (first, active uint64, ok bool) {
	d.commitMu.RLock()
	defer d.commitMu.RUnlock()
	if d.closed {
		return 0, 0, false
	}
	return d.walFirst, d.log.ActiveIndex(), true
}

// AutoCheckpoints reports how many background checkpoints have
// completed and the most recent auto-checkpoint failure (nil after any
// subsequent success). A failure stops nothing: the next commit that
// finds the threshold passed starts another.
func (d *DurableRepository) AutoCheckpoints() (uint64, error) {
	d.autoMu.Lock()
	defer d.autoMu.Unlock()
	return d.autoRuns, d.autoErr
}

// --- checkpoint and close ----------------------------------------------------

// dirtyDoc is one document a checkpoint must rewrite: its slot, the
// index of its entry in the new pack and its pinned version (frozen, so
// encoding needs no locks).
type dirtyDoc struct {
	doc *Doc
	i   int
	v   *docVersion
}

// Checkpoint folds the log into a fresh pack, incrementally: the pack
// holds the records of the documents whose version sequence moved since
// their record was written, and references every other document's
// record in the older pack that holds it. It runs in three phases so
// writers are excluded only for two O(documents) bookkeeping windows,
// never while state is serialised:
//
//  1. The cut (writers excluded): sync the old tail, start a fresh
//     segment with the next index and swap it in — commits from here
//     on land after the cut — then pin each dirty document's current
//     persistent version (O(1) per document). An older pack whose live
//     records fill less than half of it is compacted: its documents
//     count as dirty, so the sweep can retire it.
//  2. Encode (no locks): serialise each pinned frozen version into the
//     new pack's records. Writers keep committing; their records land
//     in the fresh segment, which the new pack replays.
//  3. The switch (writers excluded): write the pack — temp file,
//     fsync, rename, directory fsync; the rename is the commit point —
//     naming every entry and the fresh segment as first live; then,
//     with writers readmitted, retire dead segments and every pack the
//     new one does not reference.
//
// A checkpoint thus costs five fsyncs, whatever the number of dirty
// documents: the old tail, the fresh segment and its directory entry at
// the cut, the pack and the directory at the switch. A crash at any
// step recovers to a consistent state: before the rename the old pack
// is current and its segment range — which extends contiguously into
// the fresh segment and any post-cut commits — replays everything;
// after it the new pack is current and the dead segments and packs are
// orphans. Checkpoint also clears a WAL append failure observed at the
// cut: the pinned versions re-capture the full in-memory state and the
// failed log's tail falls below the first live segment, so recovery
// neither misses what that log lost nor replays a record memory never
// held (post-cut failures stay sticky — they sit in a segment the new
// pack replays).
func (d *DurableRepository) Checkpoint() error {
	// One checkpoint at a time: commitMu is released between phases, so
	// without this two checkpoints could race to the same generation.
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	// --- phase 1: the cut --------------------------------------------
	d.commitMu.Lock()
	if d.closed {
		d.commitMu.Unlock()
		return ErrClosed
	}
	// Sync the old tail: under SyncAsync the last commits may still be
	// unsynced, and sealing them here keeps the common recovery path
	// simple. On failure the old tail may be torn, so the failure is
	// recorded as the sticky WAL poison before the cut: post-cut
	// commits are then refused, the fresh segment stays record-free,
	// and a crash before the switch leaves exactly the one mid-set
	// shape replay tolerates — a torn segment followed by record-free
	// ones. This is also what lets Checkpoint remain the documented
	// recovery from ErrWALFailed: the cut observes the poison, the
	// pinned versions capture memory, the doubted tail stays behind the
	// cut, and success clears it.
	if syncErr := d.log.Sync(); syncErr != nil {
		d.failed.CompareAndSwap(nil, &syncErr)
	}
	failedAtCut := d.failed.Load()
	newGen := d.gen + 1
	newFirst := d.log.ActiveIndex() + 1
	// A fresh wal.Log (not Rotate, which refuses on a poisoned log) is
	// the cut: records appended after this line land in segment
	// newFirst or later, which the new pack will replay — and the old
	// pack replays them too, as a contiguous extension of its range, so
	// the cut is crash-safe before the switch.
	newLog, err := wal.Create(d.dir, newFirst, d.opts.walOptions())
	if err != nil {
		d.commitMu.Unlock()
		return err
	}
	oldLog := d.log
	d.log = newLog
	_ = oldLog.Close()
	// Membership + dirty set: a document whose version sequence still
	// matches the one its record captures is clean and keeps its
	// reference, unless the pack holding it is compacted; every other
	// one pins its current version. O(1) per document — no tree is
	// touched.
	names := d.repo().Names()
	pack := store.Pack{Gen: newGen, WALFirst: newFirst, Docs: make([]store.PackDoc, 0, len(names))}
	docs := make([]*Doc, 0, len(names))
	live := make(map[uint64]int64) // bytes of the records each older pack still serves
	for _, name := range names {
		doc, ok := lookup(d.repo(), name)
		if !ok {
			continue // dropped between Names and lookup
		}
		ref := store.Ref{Gen: newGen}
		if doc.ckpt.Gen != 0 && doc.ckptSeq == doc.Version() {
			ref = doc.ckpt
			live[ref.Gen] += int64(ref.Len)
		}
		pack.Docs = append(pack.Docs, store.PackDoc{Name: name, Ref: ref})
		docs = append(docs, doc)
	}
	var dirty []dirtyDoc
	for i := range pack.Docs {
		if gen := pack.Docs[i].Ref.Gen; gen != newGen && 2*live[gen] >= d.packs[gen] {
			continue
		}
		pack.Docs[i].Ref = store.Ref{Gen: newGen}
		dirty = append(dirty, dirtyDoc{doc: docs[i], i: i, v: docs[i].pinCurrent()})
	}
	d.commitMu.Unlock()
	// Wake replication shippers: the cut created a fresh segment, and a
	// tailing reader must hand off to it even if no commit follows (the
	// follower mirrors segment boundaries, and its staleness bound only
	// reaches zero once its position matches the leader's append end).
	d.nudgeShippers()
	if d.hooks.afterCut != nil {
		d.hooks.afterCut()
	}

	// --- phase 2: encode, lock-free ----------------------------------
	// The pinned versions are frozen: each encodes from its persistent
	// root (EncodeDocTree steps from the view to its source, so no view
	// shell is built) while writers commit freely.
	recs := make([]store.DocSnap, len(dirty))
	for j, dd := range dirty {
		recs[j] = store.DocSnap{Name: pack.Docs[dd.i].Name, Scheme: dd.v.scheme, Tree: update.EncodeDocTree(dd.v.document())}
		dd.v.unpin()
	}
	data := store.MarshalPack(&pack, recs)

	// --- phase 3: the switch -----------------------------------------
	d.commitMu.Lock()
	if d.closed {
		d.commitMu.Unlock()
		return ErrClosed
	}
	path := filepath.Join(d.dir, store.PackName(newGen))
	if err := store.WriteFileAtomic(path, data); err != nil {
		defer d.commitMu.Unlock()
		// The switch landed if the pack is in place, even though the
		// write errored (its rename can succeed and only the directory
		// fsync fail). If it is not, the old pack is current and the
		// attempt left nothing behind but the fresh segment, which is
		// NOT removable — post-cut commits may already sit in it — so
		// it stays as the live append tail, contiguous with the old
		// pack's range (the only cost is a 5-byte header per failed
		// attempt).
		if _, serr := os.Stat(path); serr != nil {
			return err
		}
		// The switch may have landed while the in-memory bookkeeping
		// still describes the old generation. Poison commits and advance
		// the in-memory generation PAST the doubted one, so a retry
		// writes a newer pack, which wins under either on-disk outcome;
		// recovery is correct under either pack meanwhile: the old one
		// replays the contiguous segment range including the fresh tail,
		// the new one has its complete record set.
		d.gen = newGen
		_ = d.poison(fmt.Errorf("checkpoint pack switch in doubt: %v", err))
		return err
	}
	// The new generation is current, and with it each rewritten
	// document's record. Clear the WAL poison only if it is still the
	// failure the cut observed — the pinned versions captured everything
	// up to the cut, but a commit that failed DURING the encode phase
	// may have left its record after it, in a segment this pack
	// replays.
	d.gen, d.walFirst = newGen, newFirst
	for _, dd := range dirty {
		dd.doc.ckpt, dd.doc.ckptSeq = pack.Docs[dd.i].Ref, dd.v.seq
	}
	packs := make(map[uint64]int64)
	for _, e := range pack.Docs {
		packs[e.Ref.Gen] = d.packs[e.Ref.Gen]
	}
	packs[newGen] = int64(len(data))
	d.packs = packs
	d.failed.CompareAndSwap(failedAtCut, nil)
	floor := min(newFirst, d.pinFloor())
	d.commitMu.Unlock()
	if d.hooks.afterPack != nil {
		d.hooks.afterPack()
	}
	// Retire what the new pack does not cover: packs it does not
	// reference, and every segment below the floor — the new first live
	// index, or the lowest replication pin under it. The sweep
	// enumerates the directory rather than the [oldFirst, newFirst)
	// range so segments an earlier checkpoint spared for a
	// since-released pin are retired too. It runs after commitMu is
	// released, so commits do not stall on its unlinks, and that is
	// safe: the keep-set and the floor were fixed under the lock;
	// ckptMu, still held, keeps out the only other writer of packs and
	// temp files; and PinSegments reads walFirst under commitMu, so a
	// pin taken after the unlock has a floor at or above newFirst —
	// above every segment the sweep deletes. A pin released meanwhile
	// only keeps its segments until the next checkpoint.
	_ = sweepDir(d.dir, floor, packs)
	return nil
}

// Close syncs and closes the log, then waits for a running
// auto-checkpoint, which finds the repository closed and gives up. The
// repository refuses all further operations; reopen with OpenDurable.
func (d *DurableRepository) Close() error {
	err := d.shut()
	d.ckptWG.Wait()
	return err
}
