// MVCC snapshot reads: the persistent version chain behind
// Repository.Snapshot and Repository.SnapshotAt. docs/CONCURRENCY.md
// is the authoritative specification of the consistency model this
// file implements; the shape in brief:
//
//   - Every document carries a version sequence number, starting at
//     InitialVersionSeq when the document is opened and advancing
//     once per committed transaction (the update layer's commit hook
//     fires once per committed op or batch — never for an aborted one —
//     always under the document's write lock).
//   - Versions are persistent, structure-sharing trees
//     (xmltree.PublishVersion): committing a mutation republishes only
//     the changed spine, sharing every untouched subtree with the
//     previous version. Publication runs in the commit hook once any
//     snapshot exists (before that, writers pay nothing and the first
//     pin publishes the accumulated delta under the read lock), so
//     pinning a version is O(1): no materialise step, no deep copy.
//   - Snapshot readers then run against the published version with NO
//     lock held: a slow reader cannot stall writers, and a writer
//     storm cannot starve readers (repo.query_p99_us and
//     repo.contention_ratio on the read_heavy workload of ./bench, and
//     the C14 experiment of cmd/xbench, measure both).
//   - Version lifetime is reference-counted for deterministic memory
//     accounting: a version releases its tree reference as soon as it
//     is superseded (a newer commit exists, or the document was
//     dropped), unpinned (no open snapshot references it) and outside
//     the retained time-travel window. The current version of a live
//     document stays cached even when unpinned — it is what the next
//     snapshot will share. Subtrees shared with younger versions stay
//     reachable through them; release only drops this version's root.
//   - With Options.RetainVersions > 0, the last N superseded versions
//     of each document are retained for SnapshotAt time-travel reads,
//     keyed by a repository-wide commit stamp (Repository.Stamp).
//
// Lock order: Snapshot and SnapshotAt acquire the requested documents'
// read locks in sorted-name order — the same single global order
// MultiBatch (write locks) and Save (read locks) use — capture every
// version while ALL those read locks are held, and release them before
// returning. Holding the full read-lock set at capture time is the
// multi-document consistency argument for Snapshot: a MultiBatch over
// any subset of the snapshot's documents holds all its write locks
// until its versions are installed, so the snapshot observes the
// transaction on every involved document or on none (never a torn
// prefix). SnapshotAt is per-document consistent but its historical
// cuts can be torn ACROSS documents — see the method comment.
// (File comment — the package doc lives in repo.go.)

package repo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// ErrSnapshotClosed reports a read on a snapshot after Close.
var ErrSnapshotClosed = errors.New("repo: snapshot is closed")

// ErrVersionEvicted reports a SnapshotAt stamp older than the
// document's retained version window (or older than the document
// itself).
var ErrVersionEvicted = errors.New("repo: version not in the retained window")

// InitialVersionSeq is the version sequence number of a freshly opened
// document: version 0 is the state the document was opened with, and
// every committed transaction advances the sequence by exactly one
// (docs/CONCURRENCY.md golden constant).
const InitialVersionSeq uint64 = 0

// versionStats aggregates repository-wide version accounting; the
// exported view is VersionStats.
type versionStats struct {
	open     atomic.Int64 // snapshots opened and not yet closed
	pinned   atomic.Int64 // versions referenced by at least one open snapshot
	live     atomic.Int64 // version descriptors holding a tree reference
	retained atomic.Int64 // superseded versions kept for time travel
}

// VersionStats is a point-in-time view of the repository's MVCC
// accounting, for operators triaging snapshot leaks and GC backlogs
// (docs/OPERATIONS.md §7). All four gauges are exact, not sampled.
type VersionStats struct {
	// OpenSnapshots counts snapshots opened and not yet closed. A
	// monotonically climbing value under steady load is a snapshot
	// leak: some reader is not calling Close.
	OpenSnapshots int64
	// PinnedVersions counts versions referenced by at least one open
	// snapshot. Superseded-but-pinned versions are the "GC backlog":
	// memory that cannot be released until their snapshots close.
	PinnedVersions int64
	// LiveVersions counts version descriptors currently holding a
	// version-tree reference — pinned ones, at most one cached current
	// version per document, plus the retained time-travel window.
	// Persistent versions share subtrees, so this counts roots, not
	// tree copies.
	LiveVersions int64
	// RetainedVersions counts superseded versions held only for
	// SnapshotAt time travel (Options.RetainVersions). Bounded by
	// RetainVersions × number of documents.
	RetainedVersions int64
}

// VersionStats returns the repository's current MVCC accounting.
func (r *Repository) VersionStats() VersionStats {
	return VersionStats{
		OpenSnapshots:    r.vstats.open.Load(),
		PinnedVersions:   r.vstats.pinned.Load(),
		LiveVersions:     r.vstats.live.Load(),
		RetainedVersions: r.vstats.retained.Load(),
	}
}

// Stamp returns the repository's current global commit stamp: a
// monotone counter advanced by every document open and every committed
// mutation. Pass a stamp observed here (or from Snapshot.Stamps) to
// SnapshotAt to read the repository as of that moment.
func (r *Repository) Stamp() uint64 { return r.clock.Load() }

// docVersion is one published, immutable document version: a reference
// to a persistent structure-sharing tree (version.go file comment). It
// is created by the first snapshot that pins the state — or by the
// commit hook when a retained time-travel window is configured — and
// is shared by every snapshot of the same version.
type docVersion struct {
	seq    uint64
	stamp  uint64
	name   string
	scheme string
	stats  *versionStats

	mu         sync.Mutex
	pins       int
	superseded bool
	retained   bool
	green      *xmltree.Node     // persistent version root; nil after release
	view       *xmltree.Document // lazily opened navigable view over green
}

// newVersion wraps a published version root in a descriptor. One
// LiveVersions unit is held until release.
func newVersion(seq, stamp uint64, name, scheme string, stats *versionStats, green *xmltree.Node, superseded bool) *docVersion {
	stats.live.Add(1)
	return &docVersion{seq: seq, stamp: stamp, name: name, scheme: scheme,
		stats: stats, green: green, superseded: superseded}
}

// pin registers one snapshot reference. Caller: Doc.pinCurrent or
// Doc.pinAt, under the document's vmu.
func (v *docVersion) pin() {
	v.mu.Lock()
	v.pins++
	if v.pins == 1 {
		v.stats.pinned.Add(1)
	}
	v.mu.Unlock()
}

// unpin drops one snapshot reference, releasing the tree reference if
// the version is also superseded and unretained.
func (v *docVersion) unpin() {
	v.mu.Lock()
	v.pins--
	if v.pins == 0 {
		v.stats.pinned.Add(-1)
		v.maybeReleaseLocked()
	}
	v.mu.Unlock()
}

// supersede marks the version no longer current (a newer commit
// exists, or the document was dropped), releasing the tree reference
// if it is also unpinned and unretained.
func (v *docVersion) supersede() {
	v.mu.Lock()
	v.superseded = true
	v.maybeReleaseLocked()
	v.mu.Unlock()
}

// evict removes the version from the retained time-travel window.
func (v *docVersion) evict() {
	v.mu.Lock()
	if v.retained {
		v.retained = false
		v.stats.retained.Add(-1)
	}
	v.maybeReleaseLocked()
	v.mu.Unlock()
}

// maybeReleaseLocked drops the version's tree reference once nothing
// can read it again: superseded means no future snapshot can pin it,
// zero pins means no open snapshot reads it now, unretained means
// SnapshotAt cannot reach it. Subtrees shared with younger versions
// remain reachable through those versions; only this root reference
// dies. Callers hold v.mu.
func (v *docVersion) maybeReleaseLocked() {
	if v.superseded && v.pins == 0 && !v.retained && v.green != nil {
		v.green = nil
		v.view = nil
		v.stats.live.Add(-1)
	}
}

// document returns the version's navigable frozen view, opening it on
// first use. Opening is O(1) — view nodes materialise lazily as
// readers descend (xmltree.OpenVersion) — and the view is cached so
// every snapshot of this version shares one tree with stable node
// identity. The caller must have pinned the version.
func (v *docVersion) document() *xmltree.Document {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.view == nil && v.green != nil {
		v.view = xmltree.OpenVersion(v.green)
	}
	return v.view
}

// Version returns the document's current version sequence number:
// InitialVersionSeq for a freshly opened document, advancing on every
// committed mutation. Two equal Version results with no writer in
// between mean the document is unchanged.
func (d *Doc) Version() uint64 {
	d.vmu.Lock()
	defer d.vmu.Unlock()
	return d.verSeq
}

// publishVersion advances the version sequence and commit stamp,
// supersedes the cached current version and — once versioning is
// active — publishes the new state as a persistent version (an
// O(changed-spine) structure-sharing republication) and maintains the
// retained time-travel window. It is the session commit hook
// (installed by Repository.add), so it runs on every committed
// mutation while the writer still holds the document's write lock;
// Drop also routes here so a dropped document's versions are released
// once unpinned.
//
// Before the first snapshot ever touches the repository (and with no
// retained window configured) the hook only advances counters:
// write-only workloads pay nothing for versioning, and the first pin
// publishes the accumulated delta.
func (d *Doc) publishVersion() {
	d.vmu.Lock()
	prevSeq, prevStamp, prevGreen := d.pubSeq, d.pubStamp, d.green
	d.verSeq++
	d.stamp = d.repo.clock.Add(1)
	cur := d.cur
	d.cur = nil
	var evicted *docVersion
	if d.repo.versioning.Load() {
		d.green = d.sess.Document().PublishVersion(d.verSeq)
		d.pubSeq = d.verSeq
		d.pubStamp = d.stamp
		if retain := d.repo.retain; retain > 0 && prevGreen != nil && !d.dropped {
			prev := cur
			if prev == nil {
				// Born superseded: the commit that is publishing right now
				// replaced this state, and no later supersede call will ever
				// reach a window-only descriptor — without the flag, aging
				// out of the window would never release it.
				prev = newVersion(prevSeq, prevStamp, d.name, d.scheme, &d.repo.vstats, prevGreen, true)
			}
			prev.mu.Lock()
			prev.retained = true
			prev.mu.Unlock()
			d.repo.vstats.retained.Add(1)
			d.hist = append(d.hist, prev)
			if len(d.hist) > retain {
				evicted = d.hist[0]
				d.hist = d.hist[:copy(d.hist, d.hist[1:])]
			}
		}
	}
	d.vmu.Unlock()
	if cur != nil {
		cur.supersede()
	}
	if evicted != nil {
		evicted.evict()
	}
}

// markDropped supersedes the cached version, evicts the retained
// window and marks the slot dropped: versions pinned from here on are
// born superseded, because no commit hook will ever fire on the slot
// again to supersede them (Repository.Drop calls this after unlinking
// the name).
func (d *Doc) markDropped() {
	d.vmu.Lock()
	d.dropped = true
	hist := d.hist
	d.hist = nil
	d.vmu.Unlock()
	for _, v := range hist {
		v.supersede()
		v.evict()
	}
	d.publishVersion()
}

// pinCurrent pins (creating on first use) the version descriptor for
// the document's current state. The caller holds the document's read
// lock, so no commit can advance the state concurrently; if the
// current state has not been published yet (versioning was inactive
// when it committed), the accumulated delta is published here, under
// the read lock — safe, because publication only touches bookkeeping
// fields concurrent readers never look at, and vmu serialises
// publishers. Steady-state cost is O(1): one descriptor, no tree work.
func (d *Doc) pinCurrent() *docVersion {
	d.vmu.Lock()
	v := d.pinCurrentLocked()
	d.vmu.Unlock()
	return v
}

func (d *Doc) pinCurrentLocked() *docVersion {
	if d.cur == nil {
		if d.green == nil || d.pubSeq != d.verSeq {
			d.green = d.sess.Document().PublishVersion(d.verSeq)
			d.pubSeq = d.verSeq
			d.pubStamp = d.stamp
		}
		// A snapshot can still pin a dropped slot (it resolved the
		// name before the drop); the version must free on its last
		// unpin, since no future commit will supersede it.
		d.cur = newVersion(d.verSeq, d.pubStamp, d.name, d.scheme, &d.repo.vstats, d.green, d.dropped)
	}
	v := d.cur
	v.pin()
	return v
}

// pinAt pins the youngest version whose commit stamp does not exceed
// stamp: the current version if the document has not changed since,
// otherwise a version from the retained time-travel window. The caller
// holds the document's read lock.
func (d *Doc) pinAt(stamp uint64) (*docVersion, error) {
	d.vmu.Lock()
	defer d.vmu.Unlock()
	if stamp >= d.stamp {
		return d.pinCurrentLocked(), nil
	}
	for i := len(d.hist) - 1; i >= 0; i-- {
		if d.hist[i].stamp <= stamp {
			v := d.hist[i]
			v.pin()
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w: %q at stamp %d (current stamp %d, %d retained)",
		ErrVersionEvicted, d.name, stamp, d.stamp, len(d.hist))
}

// snapEntry is one document inside a snapshot: the pinned version and
// its frozen view, resolved once at capture time. Close drops the view
// and keeps the descriptor.
type snapEntry struct {
	v    *docVersion
	tree *xmltree.Document
}

// Snapshot is a transaction-consistent, immutable view of one or more
// named documents, pinned at a single instant: reads on it run with no
// repository or document lock held and always observe the same
// committed state, however many writers commit meanwhile. A snapshot
// of several documents is consistent ACROSS them: it can never observe
// a MultiBatch transaction on some involved documents but not others.
// Obtain one from Repository.Snapshot or DurableRepository.Snapshot
// (or their SnapshotAt time-travel variants); Close it when done so
// its versions can be reclaimed (docs/CONCURRENCY.md specifies the
// full observation model).
//
// A Snapshot is safe for concurrent use by multiple goroutines.
type Snapshot struct {
	mu     sync.RWMutex
	docs   map[string]snapEntry
	names  []string // sorted
	stats  *versionStats
	closed bool
}

// Snapshot pins a consistent view of the named documents (all
// documents when names is empty) and returns it. The documents' read
// locks are acquired in sorted-name order — the same global order
// MultiBatch and Save use — and ALL of them are held while the
// versions are captured, which is what makes the result a consistent
// cut: no multi-document transaction can be half-visible in it. The
// locks are released before Snapshot returns; reads on the snapshot
// never block, and never are blocked by, any writer.
//
// Pinning is O(1) per document: versions are persistent
// structure-sharing trees published at commit time, so there is
// nothing to copy (the very first pin after a stretch of snapshot-free
// writing publishes the accumulated delta, once). Explicitly requested
// unknown names fail with ErrNotFound before any lock is taken; in the
// all-documents form a document dropped between the listing and the
// resolution is simply excluded, as in Save — the membership was never
// the caller's to pin. Close the snapshot when done.
func (r *Repository) Snapshot(names ...string) (*Snapshot, error) {
	return r.snapshotWith(names, func(d *Doc) (*docVersion, error) {
		return d.pinCurrent(), nil
	})
}

// SnapshotAt pins a time-travel view of the named documents (all
// documents when names is empty) as of the given commit stamp — a
// value previously observed from Stamp or Snapshot.Stamps. Each
// document resolves to the youngest version whose commit stamp does
// not exceed stamp: the current version if the document has not
// changed since, otherwise a version from the retained window
// (Options.RetainVersions); a stamp older than the window fails with
// ErrVersionEvicted.
//
// Every document in the result is individually a committed state, but
// unlike Snapshot the cut is NOT guaranteed transaction-consistent
// across documents: a MultiBatch commits its documents under one write
// lock set yet stamps them sequentially, so a historical stamp can
// land between the stamps of one transaction and observe it on some
// documents and not others. Use Snapshot (and remember its Stamps)
// when cross-document consistency of the cut matters.
func (r *Repository) SnapshotAt(stamp uint64, names ...string) (*Snapshot, error) {
	return r.snapshotWith(names, func(d *Doc) (*docVersion, error) {
		return d.pinAt(stamp)
	})
}

// snapshotWith resolves, locks and captures per the Snapshot contract,
// delegating the per-document version choice to pin.
func (r *Repository) snapshotWith(names []string, pin func(*Doc) (*docVersion, error)) (*Snapshot, error) {
	// Any snapshot activates eager publication at commit, permanently:
	// from here on writers republish the changed spine in the commit
	// hook so pins stay O(1).
	r.versioning.Store(true)
	all := len(names) == 0
	if all {
		names = r.Names()
	}
	uniq := sortedUnique(nil, names)
	held := make([]*Doc, 0, len(uniq))
	resolved := uniq[:0]
	for _, name := range uniq {
		d, ok := r.Get(name)
		if !ok {
			if all {
				continue
			}
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		held = append(held, d)
		resolved = append(resolved, name)
	}
	uniq = resolved
	for _, d := range held {
		d.mu.RLock()
	}
	s := &Snapshot{docs: make(map[string]snapEntry, len(held)), names: uniq, stats: &r.vstats}
	var pinErr error
	for _, d := range held {
		v, err := pin(d)
		if err != nil {
			pinErr = err
			break
		}
		s.docs[d.name] = snapEntry{v: v, tree: v.document()}
	}
	for i := len(held) - 1; i >= 0; i-- {
		held[i].mu.RUnlock()
	}
	if pinErr != nil {
		for _, e := range s.docs {
			e.v.unpin()
		}
		return nil, pinErr
	}
	r.vstats.open.Add(1)
	return s, nil
}

// Names lists the snapshot's document names, sorted. It stays valid
// after Close.
func (s *Snapshot) Names() []string { return append([]string(nil), s.names...) }

// Versions maps each document in the snapshot to the version sequence
// number it was pinned at — the observability handle for "did anything
// change between these two snapshots". It stays valid after Close.
func (s *Snapshot) Versions() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64, len(s.docs))
	for name, e := range s.docs {
		out[name] = e.v.seq
	}
	return out
}

// Stamps maps each document in the snapshot to the global commit stamp
// of the version it was pinned at. Any of these stamps (or Stamp's
// live value) can be passed to SnapshotAt to revisit that state while
// it stays within the retained window. It stays valid after Close.
func (s *Snapshot) Stamps() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64, len(s.docs))
	for name, e := range s.docs {
		out[name] = e.v.stamp
	}
	return out
}

// Scheme names the registry scheme the named document was opened
// under at the time of the snapshot.
func (s *Snapshot) Scheme(name string) (string, error) {
	e, err := s.entry(name)
	if err != nil {
		return "", err
	}
	return e.v.scheme, nil
}

// Document returns the named document's frozen tree. The tree is
// immutable (mutators fail with xmltree.ErrFrozen or panic; see
// xmltree's freeze semantics) and safe to navigate from any goroutine
// with no lock held, indefinitely — nodes reached from it stay valid
// even after the snapshot is closed, though closing releases the
// repository's own reference. Use xmltree's Clone for a mutable copy.
func (s *Snapshot) Document(name string) (*xmltree.Document, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	return e.tree, nil
}

// Query evaluates a location path (the xpath package's grammar)
// against the named document's frozen tree and returns the matching
// nodes — the frozen nodes themselves, zero-copy, because nothing can
// mutate them: unlike Repository.Query there is no lock to outlive and
// therefore no defensive deep copy. Clone a node if a mutable copy is
// needed.
func (s *Snapshot) Query(name, path string) ([]*xmltree.Node, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	// Structural mode navigates parent/child pointers only — a frozen
	// tree has no labeling, and needs none.
	return xpath.New(e.tree, nil, xpath.ModeStructural).Query(path)
}

// entry resolves a name under the read lock, failing on closed
// snapshots and unknown names.
func (s *Snapshot) entry(name string) (snapEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return snapEntry{}, ErrSnapshotClosed
	}
	e, ok := s.docs[name]
	if !ok {
		return snapEntry{}, fmt.Errorf("%w: %q (not in this snapshot)", ErrNotFound, name)
	}
	return e, nil
}

// Close releases the snapshot's version pins; superseded versions it
// was the last reader of drop their tree references immediately.
// Reads after Close fail with ErrSnapshotClosed (nodes already handed
// out stay valid — they are garbage-collected Go memory like any
// other). Close is idempotent and safe to call concurrently with
// reads.
func (s *Snapshot) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Drop the trees, keep the descriptors: Versions and Stamps read
	// their immutable seq and stamp after Close.
	for name, e := range s.docs {
		e.tree = nil
		s.docs[name] = e
	}
	s.mu.Unlock()
	// closed is set, so nothing writes s.docs any more.
	for _, e := range s.docs {
		e.v.unpin()
	}
	s.stats.open.Add(-1)
}
