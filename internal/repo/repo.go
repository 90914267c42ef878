// Package repo is the server-side repository layer the paper's framing
// assumes: a single mediator holding many named labelled documents and
// serving concurrent query and update traffic while every document's
// order invariant survives sustained modification ("this order must be
// maintained in the presence of updates", §1).
//
// Concurrency model, three levels (docs/CONCURRENCY.md is the full
// specification):
//
//   - The name space is sharded: an FNV-1a hash of the document name
//     picks one of N shards, each guarded by its own sync.RWMutex, so
//     opens/lookups/drops on different names rarely contend.
//   - Each document carries its own sync.RWMutex: any number of
//     readers (queries, verifications) proceed in parallel while
//     writers — single updates or batched transactions — are
//     serialized per document and never block traffic on other
//     documents.
//   - MVCC snapshot reads (version.go): Snapshot pins an immutable,
//     transaction-consistent version of one or more documents, and
//     reads on it run with NO lock held — a slow reader never stalls
//     a writer, and a writer storm never starves a reader. Versions
//     are published on commit, shared between snapshots, and
//     reference-counted so superseded versions free their memory as
//     soon as the last snapshot pinning them closes.
//
// Updates go through the update layer's transactions (update.Session's
// Stage, then Commit or Abort, driven by the one commit routine in
// txn.go): a transaction re-verifies document order exactly once
// however many ops it carries and is reverted as a whole if anything —
// including that verification — fails, so it either commits an ordered
// document or leaves it untouched; and nothing outside the session —
// counters, Doc.Version, Stamp, a snapshot — shows it before it commits,
// which on a durable repository is after its log record is written.
// Repository sessions run with auto-verify on, and a single op through
// Update is a transaction of one: an op that breaks order (a defective
// scheme like LSDX) is reverted and reported just as a Batch would be.
//
// The whole repository round-trips through the version-2 store
// container (Save/Load): every document's name, scheme and
// encoding table in one checksummed blob.
//
// Re-entrancy: the locks are not re-entrant. A View/Update/QueryFunc
// callback must not call back into the repository or its Docs (a
// nested read of the same document deadlocks once a writer is
// queued, and Save from inside an Update self-deadlocks). That
// includes Snapshot, which takes document read locks. Do all
// repository calls from outside the callback; reads on an
// already-taken Snapshot are lock-free and safe anywhere.
package repo

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xmldyn/internal/core"
	"xmldyn/internal/encoding"
	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// Repository errors.
var (
	ErrExists    = errors.New("repo: document already exists")
	ErrNotFound  = errors.New("repo: no such document")
	ErrNoScheme  = errors.New("repo: unknown labelling scheme")
	ErrEmptyName = errors.New("repo: empty document name")
)

// DefaultShards is the shard count used when Options leaves it zero.
const DefaultShards = 16

// Options configures a Repository.
type Options struct {
	// Shards is the number of name-space shards (default DefaultShards).
	Shards int
	// AutoVerify controls commit-time order verification on the
	// documents' sessions (update.Session.SetAutoVerify). Defaults to
	// on: a repository serving many clients should never publish an
	// unverified document, and a commit's verification costs what the
	// commit touched, not the document (one full pass per document,
	// more only where a scheme renumbers; Counters.FullVerifies counts
	// them). Turn it off for bulk loads where the caller verifies at
	// the end with Verify, which is always the full pass.
	AutoVerify *bool
	// RetainVersions bounds the per-document time-travel window: the
	// last RetainVersions superseded versions of each document are
	// retained for SnapshotAt reads (version.go). Zero (the default)
	// retains nothing — SnapshotAt can only reach each document's
	// current state. Retained versions share structure with the live
	// tree, so the cost is per-version spine roots, not tree copies.
	RetainVersions int
}

// Repository manages many named labelled documents for concurrent use.
type Repository struct {
	shards     []shard
	autoVerify bool
	// vstats is the repository-wide MVCC accounting behind
	// VersionStats (version.go).
	vstats versionStats
	// clock is the global commit stamp (Stamp): advanced on every
	// document open and every committed mutation; SnapshotAt reads the
	// repository as of a stamp.
	clock atomic.Uint64
	// versioning is sticky: set by the first snapshot (or at New when
	// RetainVersions > 0), it switches commit hooks from counter-only
	// updates to eager persistent publication, so snapshot pins stay
	// O(1) while snapshot-free write workloads pay nothing.
	versioning atomic.Bool
	// retain is Options.RetainVersions.
	retain int
}

type shard struct {
	mu   sync.RWMutex
	docs map[string]*Doc // guarded by mu
}

// Doc is one named document slot. Its lock serializes writers and
// admits parallel readers; access the session only through View,
// Update and Batch so the locking holds.
type Doc struct {
	name string
	// scheme is the registry name the document was opened under (the
	// labeling's self-reported name may be a variant, e.g. the
	// registry's "vector" builds a "vector-range" instance); Save
	// persists this name so Load reopens the same registry entry.
	scheme string
	mu     sync.RWMutex
	sess   *update.Session
	// scratch is the commit routine's (txn.go); guarded by mu
	scratch docScratch
	// MVCC version chain (version.go): verSeq advances once per
	// committed transaction via the session's commit hook; cur caches the
	// (possibly unmaterialised) version descriptor for the current
	// state, nil after each commit until the next snapshot pins one;
	// dropped marks a slot removed from the name space, so a version
	// pinned by a racing snapshot is born superseded (no commit hook
	// will ever fire again to supersede it).
	vmu     sync.Mutex
	verSeq  uint64
	cur     *docVersion
	dropped bool
	// Persistent publication state (version.go): green is the last
	// published version root with its seq/stamp (pubSeq, pubStamp);
	// stamp is the global commit stamp of the current state; hist is
	// the retained time-travel window, oldest first. repo links back
	// to the owning repository for its clock, stats and policy.
	repo     *Repository
	green    *xmltree.Node
	pubSeq   uint64
	pubStamp uint64
	stamp    uint64
	hist     []*docVersion
}

// New creates an empty repository.
func New(opts Options) *Repository {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	av := true
	if opts.AutoVerify != nil {
		av = *opts.AutoVerify
	}
	r := &Repository{shards: make([]shard, n), autoVerify: av, retain: opts.RetainVersions}
	if r.retain > 0 {
		// A time-travel window needs every committed state published,
		// so eager publication is on from the start.
		r.versioning.Store(true)
	}
	for i := range r.shards {
		r.shards[i].docs = make(map[string]*Doc) //xmldynvet:ignore lockheld constructor: the repository is not yet shared
	}
	return r
}

// FNV-1a parameters, inlined so shard selection allocates nothing on
// the per-operation hot path.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// shardFor hashes a document name onto its shard (FNV-1a, zero-alloc).
func (r *Repository) shardFor(name string) *shard {
	h := uint32(fnvOffset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= fnvPrime32
	}
	return &r.shards[h%uint32(len(r.shards))]
}

// Open labels doc under the named scheme and registers it. The
// document must not already exist.
func (r *Repository) Open(name string, doc *xmltree.Document, scheme string) (*Doc, error) {
	if name == "" {
		return nil, ErrEmptyName
	}
	sess, err := newSchemeSession(doc, scheme)
	if err != nil {
		return nil, err
	}
	return r.add(name, scheme, sess)
}

// newSchemeSession builds a session for doc under a registry scheme
// name.
func newSchemeSession(doc *xmltree.Document, scheme string) (*update.Session, error) {
	s, ok := core.SchemeByName(scheme)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoScheme, scheme)
	}
	return update.NewSession(doc, s.Factory())
}

// OpenSession registers an existing session under a name, adopting it
// into the repository's auto-verify policy. A rejected registration
// (ErrExists, ErrNoScheme) leaves the session untouched. The session's
// labeling must report a registry scheme name — enforced here so the
// failure surfaces at registration, not when a Save container turns
// out to be unloadable (variant labelings like vector.NewRange's
// "vector-range" have no registry entry; open those via Open, which
// records the registry name).
func (r *Repository) OpenSession(name string, sess *update.Session) (*Doc, error) {
	if name == "" {
		return nil, ErrEmptyName
	}
	scheme := sess.Labeling().Name()
	if _, ok := core.SchemeByName(scheme); !ok {
		return nil, fmt.Errorf("%w: %q (labeling does not correspond to a registry scheme; use Open)", ErrNoScheme, scheme)
	}
	return r.add(name, scheme, sess)
}

func (r *Repository) add(name, scheme string, sess *update.Session) (*Doc, error) {
	sh := r.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.docs[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	// Adopt the session into the repository's verification policy
	// before it becomes reachable by name.
	sess.SetAutoVerify(r.autoVerify)
	d := &Doc{name: name, scheme: scheme, sess: sess, scratch: docScratch{batch: sess.Batch()}, verSeq: InitialVersionSeq, repo: r}
	d.stamp = r.clock.Add(1)
	if r.versioning.Load() {
		// With a retained window configured, the opened state itself
		// must be reachable by SnapshotAt, so publish it up front.
		d.green = sess.Document().PublishVersion(d.verSeq)
		d.pubSeq = d.verSeq
		d.pubStamp = d.stamp
	}
	// Every commit of a session transaction — single op or batch,
	// plain or durable, live or replayed — republishes the document's
	// persistent MVCC version and supersedes the previous one
	// (version.go); a staged or aborted transaction publishes nothing.
	// The hook fires while the writer still holds the document's write
	// lock, so snapshot readers (read lock) can never pin a mid-commit
	// state.
	sess.SetOnCommit(d.publishVersion)
	sh.docs[name] = d
	return d, nil
}

// Get returns the named document slot.
func (r *Repository) Get(name string) (*Doc, bool) {
	sh := r.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	d, ok := sh.docs[name]
	return d, ok
}

// Drop removes the named document, reporting whether it existed. A
// dropped Doc stays usable by holders of the pointer (Batch excepted:
// a transaction only commits to a slot serving its name) but is no
// longer served by name.
func (r *Repository) Drop(name string) bool {
	sh := r.shardFor(name)
	sh.mu.Lock()
	d, ok := sh.docs[name]
	if !ok {
		sh.mu.Unlock()
		return false
	}
	delete(sh.docs, name) //xmldynvet:ignore lockheld sh.mu is still held here; the unlock above is the early-return branch
	sh.mu.Unlock()
	// Supersede the dropped document's cached version so its frozen
	// tree is released once the last snapshot pinning it closes; open
	// snapshots keep reading it (docs/CONCURRENCY.md §4). markDropped
	// also ensures a snapshot that raced the drop (it resolved the
	// slot before the delete) pins a version that is born superseded
	// — nothing will ever supersede it afterwards.
	d.markDropped()
	return true
}

// Len counts the documents.
func (r *Repository) Len() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.docs)
		sh.mu.RUnlock()
	}
	return n
}

// Names lists all document names, sorted.
func (r *Repository) Names() []string {
	var out []string
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for name := range sh.docs {
			out = append(out, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// View runs fn with the named document's session under the read lock:
// any number of Views proceed in parallel. fn must not mutate, and
// must not call back into the repository (see the package doc on
// re-entrancy).
func (r *Repository) View(name string, fn func(*update.Session) error) error {
	d, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return d.View(fn)
}

// Update runs fn with the named document's session under the write
// lock, serialized against all other access to that document only. fn
// must not call back into the repository (see the package doc on
// re-entrancy).
func (r *Repository) Update(name string, fn func(*update.Session) error) error {
	d, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return d.Update(fn)
}

// Batch commits ops against the named document as one write-locked
// transaction (one order verification for the whole batch under the
// default auto-verify policy; none when the repository opted out). The
// created nodes in the result are detached deep copies that share one
// allocation: holding one of them keeps the result's other copies
// reachable.
func (r *Repository) Batch(name string, ops []update.Op) (*update.BatchResult, error) {
	d, ok := r.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return d.Batch(ops)
}

// MultiDoc is one document's handle inside a MultiBatch transaction:
// the live tree for navigating to reference nodes, and the batch that
// queues the document's ops. Every mutation must be expressed as a
// queued op — the session is deliberately not exposed, so a durable
// MultiBatch cannot commit an unlogged change. Its batch is the
// document's own, reused by its next commit: a MultiDoc is valid only
// inside the build callback that was handed it.
type MultiDoc struct {
	doc *Doc
	b   *update.Batch
	res *update.BatchResult // what the commit created here (txn.go)
}

// Name returns the document's repository name.
func (m *MultiDoc) Name() string { return m.doc.name }

// Document returns the live tree, for navigation only: mutate it
// exclusively through ops queued on Batch.
func (m *MultiDoc) Document() *xmltree.Document { return m.doc.sess.Document() }

// Batch returns the batch queuing this document's ops. It is emptied
// when the commit returns: do not keep it past the build callback.
func (m *MultiDoc) Batch() *update.Batch { return m.b }

// MultiBatch commits one atomic transaction across the named
// documents: build receives a map from each (deduplicated) name to
// its MultiDoc and queues ops per document; the transaction then runs
// through the one commit routine (txn.go) — every involved document
// write-locked in sorted-name order for the duration, each document's
// ops staged as one batch, and every document already staged aborted to
// its pre-transaction state if a later one fails, so the transaction
// commits everywhere or nowhere. A node object belongs to
// one tree: moving content between documents is expressed as a Delete
// in the source document plus a subtree graft of a detached copy
// (Node.Clone) in the destination. build must not call back into the
// repository (see the package doc on re-entrancy).
//
// The MultiDocs are valid only inside build. The results map one entry
// per name; created nodes are detached deep copies, as in Batch.
func (r *Repository) MultiBatch(names []string, build func(map[string]*MultiDoc) error) (map[string]*update.BatchResult, error) {
	return r.commitByName(names, logPolicy{}, build)
}

// commitByName is commit for the callers whose signature promises maps
// (the two MultiBatch): the only place a transaction is keyed by name.
func (r *Repository) commitByName(names []string, pol logPolicy, build func(map[string]*MultiDoc) error) (map[string]*update.BatchResult, error) {
	mds := make([]MultiDoc, len(names))
	err := r.commit(names, pol, mds, func(n int) error {
		mds = mds[:n]
		m := make(map[string]*MultiDoc, n)
		for i := range mds {
			m[mds[i].doc.name] = &mds[i]
		}
		return build(m)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*update.BatchResult, len(mds))
	for i := range mds {
		out[mds[i].doc.name] = mds[i].res
	}
	return out, nil
}

// Query evaluates a location path against the named document under the
// read lock, returning detached deep copies of the matches (safe to
// use after the lock is released; see Doc.Query).
func (r *Repository) Query(name, path string) ([]*xmltree.Node, error) {
	d, ok := r.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return d.Query(path)
}

// QueryFunc evaluates a location path against the named document and
// hands the live result nodes to fn inside the read lock (zero-copy;
// see Doc.QueryFunc).
func (r *Repository) QueryFunc(name, path string, fn func([]*xmltree.Node) error) error {
	d, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return d.QueryFunc(path, fn)
}

// Scheme names the registry scheme the named document was opened
// under, and whether the document exists.
func (r *Repository) Scheme(name string) (string, bool) {
	d, ok := r.Get(name)
	if !ok {
		return "", false
	}
	return d.scheme, true
}

// Verify re-checks the named document's order invariant under the
// read lock.
func (r *Repository) Verify(name string) error {
	d, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return d.Verify()
}

// Save serialises every document into one version-2 store container as
// a consistent point-in-time snapshot: all document read locks are
// held simultaneously while the tables are built, so the container
// never captures a cross-document state that existed at no instant.
// Locks are acquired in sorted-name order — a single global order, so
// concurrent Saves cannot deadlock, and writers (which hold at most
// one document lock at a time) cannot form a cycle against it. The
// membership is fixed at the moment of listing; documents opened or
// dropped during the acquisition are respectively excluded or
// retained.
func (r *Repository) Save() ([]byte, error) {
	names := r.Names()
	held := make([]*Doc, 0, len(names))
	for _, name := range names {
		if d, ok := r.Get(name); ok {
			held = append(held, d)
		}
	}
	for _, d := range held {
		d.mu.RLock()
	}
	defer func() {
		for _, d := range held {
			d.mu.RUnlock()
		}
	}()
	docs := make([]store.DocSnapshot, 0, len(held))
	for _, d := range held {
		enc := encoding.Wrap(d.sess.Document(), d.sess.Labeling())
		docs = append(docs, store.DocSnapshot{Name: d.name, Scheme: d.scheme, Rows: enc.Table()})
	}
	return store.MarshalRepo(docs)
}

// Load rebuilds a repository from a Save container: every document is
// reconstructed from its rows and reopened under its recorded scheme.
func Load(data []byte, opts Options) (*Repository, error) {
	docs, err := store.UnmarshalRepo(data)
	if err != nil {
		return nil, err
	}
	r := New(opts)
	for _, d := range docs {
		doc, err := d.Rebuild()
		if err != nil {
			return nil, fmt.Errorf("repo: load %q: %w", d.Name, err)
		}
		if _, err := r.Open(d.Name, doc, d.Scheme); err != nil {
			return nil, fmt.Errorf("repo: load %q: %w", d.Name, err)
		}
	}
	return r, nil
}

// Name returns the slot's document name.
func (d *Doc) Name() string { return d.name }

// View runs fn under the read lock.
func (d *Doc) View(fn func(*update.Session) error) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return fn(d.sess)
}

// Update runs fn under the write lock.
func (d *Doc) Update(fn func(*update.Session) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fn(d.sess)
}

// Batch commits ops as one transaction through the commit routine
// (txn.go). The result's New nodes are detached deep copies: the live
// tree must only be touched under the document's lock, and the caller
// holds it no longer. Use Update with Session.Apply to work with the
// live created nodes. A slot that no longer serves its name (dropped)
// takes no more batches: ErrNotFound.
func (d *Doc) Batch(ops []update.Op) (*update.BatchResult, error) {
	var md [1]MultiDoc
	err := d.repo.commit([]string{d.name}, logPolicy{}, md[:], func(int) error {
		if md[0].doc != d {
			return fmt.Errorf("%w: %q was dropped", ErrNotFound, d.name)
		}
		for _, op := range ops {
			md[0].b.Add(op)
		}
		return nil
	})
	return md[0].res, err
}

// Query evaluates a location path under the read lock using structural
// navigation and returns detached deep copies of the matches, so the
// results stay valid — and race-free against concurrent writers —
// after the lock is released. Large result sets pay the copy; use
// QueryFunc for zero-copy access scoped inside the lock.
func (d *Doc) Query(path string) ([]*xmltree.Node, error) {
	var out []*xmltree.Node
	err := d.QueryFunc(path, func(nodes []*xmltree.Node) error {
		out = make([]*xmltree.Node, len(nodes))
		for i, n := range nodes {
			out[i] = n.Clone()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// QueryFunc evaluates a location path under the read lock and hands
// the live result nodes to fn. The nodes belong to the locked
// document: fn must not mutate them, retain them past its return, or
// call back into the repository (see the package doc on re-entrancy).
func (d *Doc) QueryFunc(path string, fn func([]*xmltree.Node) error) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	eng := xpath.New(d.sess.Document(), d.sess.Labeling(), xpath.ModeStructural)
	nodes, err := eng.Query(path)
	if err != nil {
		return err
	}
	return fn(nodes)
}

// Verify re-checks the document-order invariant under the read lock.
func (d *Doc) Verify() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.sess.Verify()
}

// Counters returns the session counters under the read lock.
func (d *Doc) Counters() update.Counters {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.sess.Counters()
}

// Scheme names the registry scheme the document was opened under.
func (d *Doc) Scheme() string { return d.scheme }
