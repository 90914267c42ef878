// The leader role of the durable core (core.go): the Repository's
// batched transactions backed by a segmented write-ahead log, so every
// committed batch survives a crash and recovery replays snapshots + log
// back to the exact committed state (labels, order and attributes
// included — replay re-runs the same deterministic op stream the live
// session ran), with recovery cost bounded by the live log suffix, not
// the full history:
// a background auto-checkpoint folds the log into fresh snapshots
// whenever live log bytes pass a threshold and retires the dead
// segments. Checkpoints are incremental — only documents that changed
// since the previous checkpoint are rewritten, each into its own
// per-document snapshot file serialised from a pinned persistent
// version (so writers are never blocked while state is encoded), and
// the version-5 manifest maps every live document to its file, reusing
// unchanged files across generations. Recovery is parallel: the
// referenced snapshot files decode on a bounded worker pool and WAL
// replay is partitioned by document (wal.ReplayPartitioned; RecMulti
// is the barrier record). docs/DURABILITY.md specifies the on-disk
// format and recovery protocol in full; docs/OPERATIONS.md is the
// field guide.
//
// Directory layout (the manifest names the snapshot files and the
// first live segment; segment indices are global and never reused):
//
//	MANIFEST              store version-5 manifest: generation, first live segment,
//	                      document name → snapshot file + generation map
//	doc-HHHH-NNNNNN.snap  version-8 per-document snapshots (hash of name, writing generation)
//	wal-NNNNNNNN.log      numbered log segments; commits since those snapshots
//
// Locking protocol, outermost first (see docs/ARCHITECTURE.md):
//
//	ckptMu    serialises whole checkpoints (which release commitMu
//	          between their phases) and bootstrap image reads
//	          (BootstrapImage), and guards each Doc's checkpoint state
//	commitMu  (the core's) writers share-lock it; Close and checkpoint
//	          phases 1 and 3 take it exclusively, so a cut or a manifest
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
	// ErrReplay wraps a recovery failure: the manifest, snapshot or log
	// could not be read back into a consistent repository.
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
	// Repo configures the in-memory repository: the SnapshotAt
	// retained-version window (RetainVersions — versions are an
	// in-memory construct, so the window resets on recovery).
	Repo Options
	// Sync is the WAL fsync policy (default wal.SyncPerCommit).
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
	// off the commit path, folding the log into fresh snapshots and
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
// pass the configured threshold — folds the log into fresh snapshots
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
	// It also guards every Doc's checkpoint state (Doc.ckpt), and
	// BootstrapImage holds it so no manifest switch or sweep can
	// interleave with an image read.
	ckptMu sync.Mutex

	// Auto-checkpoint machinery: committers nudge ckptWake when live
	// log bytes pass the threshold; the loop goroutine runs Checkpoint
	// off the commit path. Nil channels when auto-checkpoint is off.
	ckptWake chan struct{}
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup
	autoMu   sync.Mutex
	autoRuns uint64 // completed auto-checkpoints
	autoErr  error  // last auto-checkpoint failure, nil after a success

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
// dir by running the core's recovery (durableCore.recover): snapshot
// files and WAL replay on a worker pool bounded by GOMAXPROCS, a torn
// tail tolerated only on the last segment and truncated so new commits
// extend the last valid record, files the manifest does not cover
// removed. A directory with
// no manifest is initialised first — generation 1, no snapshot, an
// empty log starting at segment 1, then the manifest that makes them
// current (a crash before the manifest write leaves no manifest, so
// the next OpenDurable simply initialises again) — and then recovered
// like any other. If auto-checkpointing is enabled (it is by default;
// see DurableOptions.AutoCheckpointBytes) the background checkpointer
// is started before OpenDurable returns.
func OpenDurable(dir string, opts DurableOptions) (*DurableRepository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DurableRepository{durableCore: durableCore{dir: dir, opts: opts}}
	err := d.recover()
	if os.IsNotExist(err) {
		// A fresh directory: an empty log at segment 1, then the
		// generation-1 manifest naming it.
		if err = emptySegment(dir, 1, opts.walOptions()); err == nil {
			err = store.WriteManifest(dir, store.Manifest{Gen: 1, WALFirst: 1})
		}
		if err == nil {
			err = d.recover()
		}
	}
	if err != nil {
		return nil, err
	}
	d.startAutoCheckpoint()
	return d, nil
}

// startAutoCheckpoint launches the background checkpointer when the
// options arm it. Committers nudge it after appends; it re-checks the
// threshold and runs Checkpoint off the commit path.
func (d *DurableRepository) startAutoCheckpoint() {
	if d.opts.autoCheckpointBytes() <= 0 {
		return
	}
	d.ckptWake = make(chan struct{}, 1)
	d.ckptStop = make(chan struct{})
	d.ckptWG.Add(1)
	go d.autoCheckpointLoop()
}

// autoCheckpointLoop services ckptWake nudges: each one re-checks the
// live-bytes threshold (commits may have raced a manual checkpoint)
// and, if still exceeded, checkpoints. Failures are recorded for
// AutoCheckpoints and retried on the next nudge; a closed repository
// ends the loop via ckptStop.
func (d *DurableRepository) autoCheckpointLoop() {
	defer d.ckptWG.Done()
	threshold := d.opts.autoCheckpointBytes()
	for {
		select {
		case <-d.ckptStop:
			return
		case <-d.ckptWake:
		}
		if size, ok := d.LogSize(); !ok || size < threshold {
			continue
		}
		err := d.Checkpoint()
		d.autoMu.Lock()
		switch {
		case err == nil:
			d.autoRuns++
			d.autoErr = nil
		case !errors.Is(err, ErrClosed):
			d.autoErr = err
		}
		d.autoMu.Unlock()
	}
}

// nudgeAutoCheckpoint wakes the checkpointer if live log bytes passed
// the threshold, and nudges replication shippers unconditionally (a
// record just became durable for them to stream). Called by committers
// after a successful append, under commitMu's read side (so d.log is
// stable); the sends never block.
func (d *DurableRepository) nudgeAutoCheckpoint() {
	d.notifyCommit()
	if d.ckptWake == nil || d.log.LiveBytes() < d.opts.autoCheckpointBytes() {
		return
	}
	select {
	case d.ckptWake <- struct{}{}:
	default:
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
func (d *DurableRepository) Batch(name string, build func(*xmltree.Document, *update.Batch) error) (update.BatchResult, error) {
	return d.repo().batch(name, logPolicy{leader: d, kind: RecBatch}, build)
}

// MultiBatch is Repository.MultiBatch under the append policy: the
// whole transaction is ONE RecMulti record holding every document that
// queued ops, so a crash either preserves the entire transaction or
// tears the entire record off the log tail; recovery can never replay
// a subset of the involved documents. As in Batch, build receives
// trees, not sessions, and what it receives is valid only inside it.
func (d *DurableRepository) MultiBatch(names []string, build func(map[string]*MultiDoc) error) (map[string]update.BatchResult, error) {
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
// subsequent success). Failures do not stop the checkpointer; it
// retries on the next commit that crosses the threshold.
func (d *DurableRepository) AutoCheckpoints() (uint64, error) {
	d.autoMu.Lock()
	defer d.autoMu.Unlock()
	return d.autoRuns, d.autoErr
}

// --- checkpoint and close ----------------------------------------------------

// dirtyDoc is one document a checkpoint must rewrite: its slot, its
// pinned version (frozen, so encoding needs no locks) and the manifest
// entry it will become.
type dirtyDoc struct {
	doc *Doc
	e   store.ManifestDoc
	v   *docVersion
}

// Checkpoint folds the log into fresh per-document snapshots,
// incrementally: only documents whose version sequence moved since the
// current manifest are rewritten; every other manifest entry reuses
// the previous generation's file. It runs in three phases so writers
// are excluded only for two O(documents) bookkeeping windows, never
// while state is serialised:
//
//  1. The cut (writers excluded): sync the old tail, start a fresh
//     segment with the next index and swap it in — commits from here
//     on land after the cut — then pin each dirty document's current
//     persistent version (O(1) per document).
//  2. Encode (no locks): serialise each pinned frozen version into
//     its doc-*.snap file as one batch (store.WriteFiles): up to eight
//     writers encode and write fsynced temp files, every file is then
//     renamed into place and the directory fsynced once. Writers keep
//     committing; their records land in the fresh segment, which the
//     new manifest replays.
//  3. The switch (writers excluded): write the version-5 manifest
//     naming every entry and the fresh segment as first live; then,
//     with writers readmitted, retire dead segments and unreferenced
//     old snapshot files.
//
// A crash at any step recovers to a consistent state: before the
// manifest switch the old manifest is current and its segment range —
// which extends contiguously into the fresh segment and any post-cut
// commits — replays everything, with this attempt's snapshot files as
// unreferenced orphans; after the switch the new file set is current
// and the dead segments are orphans. Checkpoint also clears a WAL
// append failure observed at the cut: the pinned versions re-capture
// the full in-memory state and the failed log's tail falls below the
// first live segment, so recovery neither misses what that log lost nor
// replays a record memory never held (post-cut failures stay sticky —
// they sit in a segment the new manifest replays).
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
	// newFirst or later, which the new manifest will replay — and the
	// old manifest replays them too, as a contiguous extension of its
	// range, so the cut is crash-safe before the switch.
	newLog, err := wal.Create(d.dir, newFirst, d.opts.walOptions())
	if err != nil {
		d.commitMu.Unlock()
		return err
	}
	oldLog := d.log
	d.log = newLog
	_ = oldLog.Close()
	// Membership + dirty set: a document whose version sequence still
	// matches the one its checkpoint state captures is clean and keeps
	// its entry; every other one pins its current version. O(1) per
	// document — no tree is touched.
	names := d.repo().Names()
	entries := make([]store.ManifestDoc, 0, len(names))
	used := make(map[string]bool, len(names))
	var dirty []dirtyDoc
	for _, name := range names {
		doc, ok := lookup(d.repo(), name)
		if !ok {
			continue // dropped between Names and lookup
		}
		if doc.ckpt.File != "" && doc.ckptSeq == doc.Version() {
			entries = append(entries, doc.ckpt)
			used[doc.ckpt.File] = true
			continue
		}
		e := store.ManifestDoc{Name: name, File: store.DocSnapName(name, newGen, 0), Gen: newGen}
		for salt := uint64(1); used[e.File]; salt++ {
			e.File = store.DocSnapName(name, newGen, salt)
		}
		used[e.File] = true
		dirty = append(dirty, dirtyDoc{doc: doc, e: e, v: doc.pinCurrent()})
		entries = append(entries, e)
	}
	d.commitMu.Unlock()
	// Wake replication shippers: the cut created a fresh segment, and a
	// tailing reader must hand off to it even if no commit follows (the
	// follower mirrors segment boundaries, and its staleness bound only
	// reaches zero once its position matches the leader's append end).
	d.notifyCommit()
	if d.hooks.afterCut != nil {
		d.hooks.afterCut()
	}

	// --- phase 2: encode and write, lock-free -------------------------
	// The pinned versions are frozen: each of the batch's writers
	// encodes its documents from their persistent roots (EncodeDocTree
	// steps from the view to its source, so no view shell is built)
	// while writers commit freely. Every pin is dropped once the batch
	// is over, whatever its outcome.
	err = store.WriteFiles(d.dir, len(dirty), func(i int) (string, []byte) {
		dd := dirty[i]
		tree := update.EncodeDocTree(dd.v.document())
		return dd.e.File, store.MarshalDocSnap(store.DocSnap{Name: dd.e.Name, Scheme: dd.v.scheme, Tree: tree})
	}, d.hooks.afterSnapFile)
	for _, dd := range dirty {
		dd.v.unpin()
	}
	// cleanup removes this attempt's snapshot files. Their generation
	// is above every file the current manifest names, so whatever of
	// them exists is this attempt's or an earlier failed one's.
	cleanup := func() {
		for _, dd := range dirty {
			_ = os.Remove(filepath.Join(d.dir, dd.e.File))
		}
	}
	if err != nil {
		cleanup()
		return err
	}

	// --- phase 3: the switch -----------------------------------------
	d.commitMu.Lock()
	if d.closed {
		d.commitMu.Unlock()
		cleanup()
		return ErrClosed
	}
	if err := store.WriteManifest(d.dir, store.Manifest{Gen: newGen, WALFirst: newFirst, Docs: entries}); err != nil {
		defer d.commitMu.Unlock()
		// The switch may have landed even though WriteManifest errored
		// (its rename can succeed and only the directory fsync fail),
		// so re-read the manifest to learn which generation is current
		// before cleaning up — deleting files a switched manifest
		// points at would corrupt the repository to fix a leak.
		if man, rerr := store.ReadManifest(d.dir); rerr == nil && man.Gen == d.gen {
			// The switch did not land: this attempt's snapshot files
			// are orphans; remove them so a repeatedly failing
			// checkpoint does not accumulate garbage. The fresh
			// segment is NOT removable — post-cut commits may already
			// sit in it — so it stays as the live append tail,
			// contiguous with the old manifest's range (recovery
			// replays it; the only cost is a 5-byte header per failed
			// attempt).
			cleanup()
			return err
		}
		// The switch landed (or the manifest state is unknowable) while
		// the in-memory bookkeeping still describes the old generation.
		// Poison commits and advance the in-memory generation PAST the
		// doubted one: a retried checkpoint must not reuse generation
		// newGen for new snapshot files — the doubted manifest, if it
		// landed, references files of that name, and overwriting them
		// with post-poison state would break replay (the on-disk
		// WALFirst would no longer match the snapshot's cut). With the
		// generation skipped, the retry writes fresh file names and a
		// fresh manifest, converging under either on-disk outcome;
		// whichever files lose become orphans for the next open's
		// sweep. Recovery is correct under either manifest meanwhile:
		// the old one replays the contiguous segment range including
		// the fresh tail, the new one has its complete file set.
		d.gen = newGen
		_ = d.poison(fmt.Errorf("checkpoint manifest switch in doubt: %v", err))
		return err
	}
	// The new generation is current, and with it each rewritten
	// document's checkpoint state. Clear the WAL poison only if it is
	// still the failure the cut observed — the pinned versions captured
	// everything up to the cut, but a commit that failed DURING the
	// encode phase may have left its record after it, in a segment this
	// manifest replays.
	d.gen, d.walFirst = newGen, newFirst
	for _, dd := range dirty {
		dd.doc.ckpt, dd.doc.ckptSeq = dd.e, dd.v.seq
	}
	d.failed.CompareAndSwap(failedAtCut, nil)
	floor := min(newFirst, d.pinFloor())
	d.commitMu.Unlock()
	if d.hooks.afterManifest != nil {
		d.hooks.afterManifest()
	}
	// Retire what the new manifest does not cover: snapshot files it
	// stopped referencing, and every segment below the floor — the new
	// first live index, or the lowest replication pin under it. The
	// sweep enumerates the directory rather than the [oldFirst,
	// newFirst) range so segments an earlier checkpoint spared for a
	// since-released pin are retired too. It runs after commitMu is
	// released, so commits do not stall on its unlinks, and that is
	// safe: the keep-set and the floor were fixed under the lock;
	// ckptMu, still held, keeps out the only other writer of doc-*.snap
	// and temp files; and PinSegments reads walFirst under commitMu, so
	// a pin taken after the unlock has a floor at or above newFirst —
	// above every segment the sweep deletes. A pin released meanwhile
	// only keeps its segments until the next checkpoint.
	_ = sweepDir(d.dir, &store.Manifest{WALFirst: floor, Docs: entries})
	return nil
}

// Close stops the auto-checkpointer, syncs and closes the log. The
// repository refuses all further operations; reopen with OpenDurable.
func (d *DurableRepository) Close() error {
	first, err := d.shut()
	// Stop the checkpointer outside commitMu: it may be blocked inside
	// Checkpoint waiting for the lock, and will see closed once it gets
	// it.
	if first && d.ckptStop != nil {
		close(d.ckptStop)
		d.ckptWG.Wait()
	}
	return err
}
