// MVCC snapshot reads: the persistent version chain behind
// Repository.Snapshot. docs/CONCURRENCY.md is the authoritative
// specification of the consistency model this file implements; the
// shape in brief:
//
//   - Every document carries a version sequence number, starting at
//     InitialVersionSeq when the document is opened and advancing
//     once per committed transaction — never for an empty or aborted
//     one — always under the document's write lock (the commit
//     routine, txn.go, calls Doc.advance).
//   - A version is made when it is read. Versions are persistent,
//     structure-sharing trees (xmltree.PublishVersion), and the first
//     pin of a state — a snapshot, or the checkpoint cut — publishes
//     it: it copies the spines every commit since the previous pin
//     changed and shares every untouched subtree with the version
//     published then. A commit copies nothing; a pin of an unchanged
//     state copies nothing either, and no pin copies the document.
//   - A version is a value, so a read of it is computed once: each
//     version keeps an element index (xpath.Index) beside its view. The
//     pin that publishes it hands it a copy of every list the live
//     document's index holds, as view nodes reached by descending the
//     view along the live nodes' child positions (xpath.Index.Capture),
//     so its first //n of such a name is handed a list. The first //n
//     of any other name walks the version and keeps the list; every
//     later read, on any snapshot of the version, is handed the list.
//   - Snapshot readers then run against the published version with NO
//     lock held: a slow reader cannot stall writers, and a writer
//     storm cannot starve readers (repo.query_p99_us and
//     repo.contention_ratio on the read_heavy workload of ./bench
//     measure both).
//   - Version lifetime is reference-counted for deterministic memory
//     accounting: a version releases its tree reference as soon as it
//     is superseded (a newer commit exists, or the document was
//     dropped) and unpinned (no open snapshot references it). The
//     current version of a live document stays cached even when
//     unpinned — it is what the next snapshot will share. Subtrees
//     shared with younger versions stay reachable through them;
//     release only drops this version's root. No history is kept: an
//     earlier state is readable only through a snapshot that pinned it.
//
// Lock order: Snapshot acquires the requested documents' read locks
// in sorted-name order — the same single global order MultiBatch
// (write locks) and Save (read locks) use — captures every version
// while ALL those read locks are held, and releases them before
// returning. Holding the full read-lock set at capture time is the
// multi-document consistency argument for Snapshot: a MultiBatch over
// any subset of the snapshot's documents holds all its write locks
// until its versions are installed, so the snapshot observes the
// transaction on every involved document or on none (never a torn
// prefix).
// (File comment — the package doc lives in repo.go.)

package repo

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// ErrSnapshotClosed reports a read on a snapshot after Close.
var ErrSnapshotClosed = errors.New("repo: snapshot is closed")

// InitialVersionSeq is the version sequence number of a freshly opened
// document: version 0 is the state the document was opened with, and
// every committed transaction advances the sequence by exactly one
// (docs/CONCURRENCY.md golden constant).
const InitialVersionSeq uint64 = 0

// versionStats aggregates repository-wide version accounting; the
// exported view is VersionStats.
type versionStats struct {
	open   atomic.Int64 // snapshots opened and not yet closed
	pinned atomic.Int64 // versions referenced by at least one open snapshot
	live   atomic.Int64 // version descriptors holding a tree reference
}

// VersionStats is a point-in-time view of the repository's MVCC
// accounting, for operators triaging snapshot leaks and GC backlogs
// (docs/OPERATIONS.md §7). The three gauges are exact, not sampled.
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
	// version-tree reference — pinned ones plus at most one cached
	// current version per document. Persistent versions share
	// subtrees, so this counts roots, not tree copies.
	LiveVersions int64
	// RetainedVersions always reads 0: the repository keeps no
	// superseded version that no snapshot pins. The field stays for
	// readers that still report it.
	RetainedVersions int64
}

// VersionStats returns the repository's current MVCC accounting.
func (r *Repository) VersionStats() VersionStats {
	return VersionStats{
		OpenSnapshots:  r.vstats.open.Load(),
		PinnedVersions: r.vstats.pinned.Load(),
		LiveVersions:   r.vstats.live.Load(),
	}
}

// docVersion is one published, immutable document version: a view of
// a persistent structure-sharing tree (version.go file comment). It is
// created by the first pin of the state and is shared by every snapshot
// of the same version. The descriptor and what its readers read are one
// allocation, which the version's last holder lets go: the document
// while it is current, and each snapshot until Close.
type docVersion struct {
	seq    uint64
	scheme string
	stats  *versionStats

	mu         sync.Mutex
	pins       int
	superseded bool
	released   bool

	read versionRead
}

// versionRead is what a version's readers read: its navigable view and
// the index of its element names. A version never changes, so nothing
// maintains its lists.
type versionRead struct {
	view  xmltree.View
	index xpath.Index
}

// newVersion opens a published version root and wraps it in a
// descriptor. Opening is O(1) — view nodes materialise lazily as
// readers descend (xmltree.OpenVersion) — and one view and one index
// serve every snapshot of the version, so node identity is stable
// across them and a name's list is built once. One LiveVersions unit is
// held until release.
func newVersion(seq uint64, scheme string, stats *versionStats, root *xmltree.Node, superseded bool) *docVersion {
	stats.live.Add(1)
	v := &docVersion{seq: seq, scheme: scheme, stats: stats, superseded: superseded}
	v.read.view.Open(root)
	return v
}

// pin registers one snapshot reference. Caller: Doc.pinCurrent, under
// the document's vmu.
func (v *docVersion) pin() {
	v.mu.Lock()
	v.pins++
	if v.pins == 1 {
		v.stats.pinned.Add(1)
	}
	v.mu.Unlock()
}

// unpin drops one snapshot reference, releasing the tree reference if
// the version is also superseded.
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
// if it is also unpinned.
func (v *docVersion) supersede() {
	v.mu.Lock()
	v.superseded = true
	v.maybeReleaseLocked()
	v.mu.Unlock()
}

// maybeReleaseLocked counts the version released once nothing can read
// it again: superseded means no future snapshot can pin it, zero pins
// means no open snapshot reads it now. By then the document has let the
// descriptor go, and so has every snapshot that pinned it, so its root,
// view and lists go with it. Subtrees shared with younger versions
// remain reachable through those versions; only this root reference
// dies. A reader already holding the view keeps it alive for itself.
// Callers hold v.mu.
func (v *docVersion) maybeReleaseLocked() {
	if v.superseded && v.pins == 0 && !v.released {
		v.released = true
		v.stats.live.Add(-1)
	}
}

// document returns the version's navigable frozen view. The caller
// must have pinned the version.
func (v *docVersion) document() *xmltree.Document { return v.read.view.Document() }

// Version returns the document's current version sequence number:
// InitialVersionSeq for a freshly opened document, advancing on every
// committed mutation. Two equal Version results with no writer in
// between mean the document is unchanged.
func (d *Doc) Version() uint64 {
	d.vmu.Lock()
	defer d.vmu.Unlock()
	return d.verSeq
}

// advance moves the document to its next version: the sequence steps
// and the cached current version is superseded, so the next pin
// publishes the new state. The commit routine (txn.go) calls it under
// the document's write lock, once for every document a transaction
// committed on and once for every document whose abort failed, which
// may have left a state no commit produced; Drop calls it through
// markDropped, so a dropped document's versions are released once
// unpinned.
func (d *Doc) advance() {
	d.vmu.Lock()
	d.verSeq++
	cur := d.cur
	d.cur = nil
	d.vmu.Unlock()
	if cur != nil {
		cur.supersede()
	}
}

// markDropped marks the slot dropped and supersedes the cached version:
// versions pinned from here on are born superseded, because no commit
// will ever advance the slot again to supersede them (Repository.Drop
// calls this after unlinking the name).
func (d *Doc) markDropped() {
	d.vmu.Lock()
	d.dropped = true
	d.vmu.Unlock()
	d.advance()
}

// pinCurrent pins the version descriptor for the document's current
// state, publishing the state if no pin has since its commit. The
// caller holds the document's read lock (Snapshot) or the leader's
// commit lock (the checkpoint cut), so no commit runs concurrently.
// Publication copies the spines the commits since the last pin changed
// (nothing when no commit did); it runs under the read lock because it
// touches only the live tree's shadows, which concurrent readers never
// look at, and vmu serialises pinners. It then captures the live
// index's lists into the version's, under the live index's mutex, which
// lock-held readers building a list take too: lock order document read
// lock, vmu, Index.mu. A pin of a state already pinned is O(1): one
// descriptor, no tree work.
func (d *Doc) pinCurrent() *docVersion {
	d.vmu.Lock()
	defer d.vmu.Unlock()
	if d.cur == nil || d.dropped {
		// A snapshot can still pin a dropped slot (it resolved the
		// name before the drop). Each such pin gets a version of its
		// own, born superseded so that it frees on its last unpin: no
		// future commit will supersede it, and a version shared
		// between such pins could be released under a later one.
		d.cur = newVersion(d.verSeq, d.scheme, &d.repo.vstats, d.sess.Document().PublishVersion(d.verSeq), d.dropped)
		d.cur.read.index.Capture(d.sess.Index(), &d.cur.read.view)
	}
	d.cur.pin()
	return d.cur
}

// snapEntry is one document inside a snapshot: its name, the pinned
// version's sequence number, descriptor and what its readers read,
// resolved once at capture time. Close drops the descriptor and the
// read and keeps the name and the number; doc is the live document only
// while the snapshot is being captured.
type snapEntry struct {
	name string
	seq  uint64
	doc  *Doc
	v    *docVersion
	read *versionRead
}

// Snapshot is a transaction-consistent, immutable view of one or more
// named documents, pinned at a single instant: reads on it run with no
// repository or document lock held and always observe the same
// committed state, however many writers commit meanwhile. A snapshot
// of several documents is consistent ACROSS them: it can never observe
// a MultiBatch transaction on some involved documents but not others.
// Obtain one from Repository.Snapshot or DurableRepository.Snapshot;
// Close it when done so its versions can be reclaimed
// (docs/CONCURRENCY.md specifies the full observation model).
//
// A Snapshot is safe for concurrent use by multiple goroutines. It is
// the struct and a slice of entries sorted by name, searched by binary
// search; there is no map. A snapshot of one document keeps its entry
// inside the struct, so it is one allocation.
type Snapshot struct {
	mu     sync.RWMutex
	docs   []snapEntry  // sorted by name
	one    [1]snapEntry // docs' array when it holds one entry
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
// Pinning a document's state publishes it if no pin has since its
// last commit, copying the spines the commits since the previous pin
// changed, under the read lock; a state already pinned costs O(1), and
// no pin copies the document. Explicitly requested
// unknown names fail with ErrNotFound before any lock is taken; in the
// all-documents form a document dropped between the listing and the
// resolution is simply excluded, as in Save — the membership was never
// the caller's to pin. Close the snapshot when done.
func (r *Repository) Snapshot(names ...string) (*Snapshot, error) {
	all := len(names) == 0
	if all {
		names = r.Names()
	}
	s := &Snapshot{stats: &r.vstats}
	docs := s.one[:]
	if len(names) != 1 {
		docs = make([]snapEntry, len(names))
	}
	for i, name := range names {
		docs[i].name = name
	}
	slices.SortFunc(docs, func(a, b snapEntry) int { return strings.Compare(a.name, b.name) })
	docs = slices.CompactFunc(docs, func(a, b snapEntry) bool { return a.name == b.name })
	resolved := docs[:0]
	for _, e := range docs {
		d, ok := lookup(r, e.name)
		if !ok {
			if all {
				continue
			}
			return nil, fmt.Errorf("%w: %q", ErrNotFound, e.name)
		}
		e.doc = d
		resolved = append(resolved, e)
	}
	docs = resolved
	for _, e := range docs {
		e.doc.mu.RLock()
	}
	for i := range docs {
		e := &docs[i]
		e.v = e.doc.pinCurrent()
		e.seq, e.read = e.v.seq, &e.v.read
	}
	for i := len(docs) - 1; i >= 0; i-- {
		docs[i].doc.mu.RUnlock()
		docs[i].doc = nil
	}
	r.vstats.open.Add(1)
	s.docs = docs
	return s, nil
}

// Names lists the snapshot's document names, sorted. It stays valid
// after Close, and reads only the names, which Close leaves alone.
func (s *Snapshot) Names() []string {
	out := make([]string, len(s.docs))
	for i := range s.docs {
		out[i] = s.docs[i].name
	}
	return out
}

// Versions maps each document in the snapshot to the version sequence
// number it was pinned at — the observability handle for "did anything
// change between these two snapshots". It stays valid after Close.
func (s *Snapshot) Versions() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64, len(s.docs))
	for _, e := range s.docs {
		out[e.name] = e.seq
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
	return e.read.view.Document(), nil
}

// Query evaluates a location path (the xpath package's grammar)
// against the named document's frozen tree and returns the matching
// nodes — the frozen nodes themselves, zero-copy, because nothing can
// mutate them: unlike Repository.Query there is no lock to outlive and
// therefore no defensive deep copy. Clone a node if a mutable copy is
// needed.
//
// A //n reads the version's list of n (from an element, the run of it
// inside the element's subtree), which the version's first such read
// builds with one walk and every later read, on this or any snapshot of
// the version, is handed without a walk. So the slice Query returns may
// be shared, as QueryFunc's is: it is capacity-limited, so an append
// copies it, and the caller must not write into it.
func (s *Snapshot) Query(name, path string) ([]*xmltree.Node, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	return xpath.Indexed(e.read.view.Document(), &e.read.index).Query(path)
}

// entry resolves a name under the read lock, failing on closed
// snapshots and unknown names.
func (s *Snapshot) entry(name string) (snapEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return snapEntry{}, ErrSnapshotClosed
	}
	i, ok := slices.BinarySearchFunc(s.docs, name, func(e snapEntry, name string) int { return strings.Compare(e.name, name) })
	if !ok {
		return snapEntry{}, fmt.Errorf("%w: %q (not in this snapshot)", ErrNotFound, name)
	}
	return s.docs[i], nil
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
	// Unpin and let go of each version, keep the names and numbers:
	// Versions reads them after Close.
	for i := range s.docs {
		e := &s.docs[i]
		e.v.unpin()
		e.v, e.read = nil, nil
	}
	s.mu.Unlock()
	s.stats.open.Add(-1)
}
