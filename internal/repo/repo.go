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
//     picks one of DefaultShards shards, each guarded by its own
//     sync.RWMutex, so opens/lookups/drops on different names rarely
//     contend.
//   - Each document carries its own sync.RWMutex: any number of
//     readers (queries, verifications) proceed in parallel while
//     writers — Batch and MultiBatch transactions — are
//     serialized per document and never block traffic on other
//     documents.
//   - MVCC snapshot reads (version.go): Snapshot pins an immutable,
//     transaction-consistent version of one or more documents, and
//     reads on it run with NO lock held — a slow reader never stalls
//     a writer, and a writer storm never starves a reader. A version
//     is published when it is first pinned, shared between snapshots,
//     and reference-counted so superseded versions free their memory
//     as soon as the last snapshot pinning them closes.
//
// Every write is an op list: Batch and MultiBatch hand a build callback
// the locked document and its batch, and what build queues is the
// transaction. It goes through the update layer's transactions
// (update.Session's Stage, then Commit or Abort, driven by the one
// commit routine in txn.go): a transaction re-verifies document order
// exactly once however many ops it carries and is reverted as a whole if
// anything — including that verification — fails, so it either commits
// an ordered document or leaves it untouched (an op that breaks order,
// as a defective scheme like LSDX's can, is reverted and reported); and
// nothing outside the session — counters, Doc.Version, a snapshot —
// shows it before it commits, which on a durable repository is after
// its log record is written. The in-memory Repository and the durable
// leader have the same write methods with the same signatures.
//
// The whole repository round-trips through one store image (Save/Load):
// the all-local pack Save writes, every document's name, scheme and
// doc-tree image as a checkpoint records it, in one checksummed blob.
//
// Re-entrancy: the locks are not re-entrant. A View/QueryFunc callback
// or a Batch/MultiBatch build must not call back into the repository (a
// nested read of the same document deadlocks once a writer is queued,
// and Save from inside a build self-deadlocks). That includes Snapshot,
// which takes document read locks. Do all repository calls from outside
// the callback; reads on an already-taken Snapshot are lock-free and
// safe anywhere.
package repo

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"xmldyn/internal/core"
	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// Repository errors.
var (
	ErrExists    = errors.New("repo: document already exists")
	ErrNotFound  = errors.New("repo: no such document")
	ErrNoScheme  = errors.New("repo: labelling scheme unknown or not admitted")
	ErrEmptyName = errors.New("repo: empty document name")
)

// DefaultShards is the number of name-space shards.
const DefaultShards = 16

// Repository manages many named labelled documents for concurrent use.
// Every commit verifies document order (update.Session.SetAutoVerify):
// a repository serving many clients publishes only states whose order
// holds — an opened document's is Build's, in order by construction,
// and every later one passed its commit's verification. That costs what
// the commit touched, not the document; a full pass runs only where a
// scheme renumbers or a verification failed (Counters.FullVerifies).
type Repository struct {
	shards [DefaultShards]shard
	// vstats is the repository-wide MVCC accounting behind
	// VersionStats (version.go).
	vstats versionStats
}

type shard struct {
	mu   sync.RWMutex
	docs map[string]*Doc // guarded by mu
}

// Doc is one named document slot. Its lock serializes writers and
// admits parallel readers; the repository's methods reach the session
// only under it. Outside the package a Doc is only its Version.
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
	// committed transaction (Doc.advance, called by the commit routine);
	// cur caches the version descriptor for the current state, nil after
	// each commit until the next pin publishes one; dropped marks a slot
	// removed from the name space, so a version pinned by a racing
	// snapshot is born superseded (no commit will ever advance the slot
	// again to supersede it). repo links back to the owning repository
	// for its version stats.
	vmu     sync.Mutex
	verSeq  uint64
	cur     *docVersion
	dropped bool
	repo    *Repository
	// ckpt is where the leader's current pack finds this slot's record
	// (durable.go): the generation of the pack that holds it, its offset
	// and its length; ckptSeq is the version sequence the record
	// captures. ckpt.Gen is zero until a recovery loads the slot from a
	// record or a checkpoint writes one, so a slot opened since — a
	// dropped name reopened included — is dirty. Written before the
	// repository is published, or under the leader's checkpoint lock.
	ckpt    store.Ref
	ckptSeq uint64
}

// New creates an empty repository.
func New() *Repository {
	r := &Repository{}
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

// shardFor hashes a document name — a string, or the bytes of one in a
// log record — onto its shard (FNV-1a, zero-alloc).
func shardFor[T string | []byte](r *Repository, name T) *shard {
	h := uint32(fnvOffset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= fnvPrime32
	}
	return &r.shards[h%DefaultShards]
}

// nameOf returns the name b spells: the open document's own string when
// there is one, so that resolving a logged name allocates nothing — and a
// copy only for a name no document of r (or no r) has.
func (r *Repository) nameOf(b []byte) string {
	if r != nil {
		if d, ok := lookup(r, b); ok {
			return d.name
		}
	}
	return string(b)
}

// Open labels doc under the named scheme and registers it. The
// document must not already exist; a scheme the registry does not name,
// or one whose labels are not unique, is ErrNoScheme.
func (r *Repository) Open(name string, doc *xmltree.Document, scheme string) error {
	if name == "" {
		return ErrEmptyName
	}
	if _, dup := lookup(r, name); dup { // before doc is labelled a second time
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	sess, err := newSchemeSession(doc, scheme)
	if err != nil {
		return err
	}
	return r.add(name, scheme, sess)
}

// newSchemeSession builds a session for doc under a registry scheme
// name. The engine admits only the rows Figure 7 grades as keeping
// their labels unique: a scheme that can hand two nodes one label (lsdx,
// com-d) cannot verify a commit's document order, so it is ErrNoScheme
// here, though a bare session still takes it.
func newSchemeSession(doc *xmltree.Document, scheme string) (*update.Session, error) {
	s, ok := core.SchemeByName(scheme)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoScheme, scheme)
	}
	if !s.UniqueLabels {
		return nil, fmt.Errorf("%w: %q can give two nodes one label", ErrNoScheme, scheme)
	}
	return update.NewSession(doc, s.Factory())
}

// add registers sess under name, scheme being the registry name it was
// built from.
func (r *Repository) add(name, scheme string, sess *update.Session) error {
	sh := shardFor(r, name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.docs[name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	// Every commit verifies, from before the session is reachable by
	// name.
	sess.SetAutoVerify(true)
	sh.docs[name] = &Doc{name: name, scheme: scheme, sess: sess, scratch: docScratch{batch: sess.Batch()}, verSeq: InitialVersionSeq, repo: r}
	return nil
}

// lookup returns the document serving a name given as a string or as
// its bytes.
func lookup[T string | []byte](r *Repository, name T) (*Doc, bool) {
	sh := shardFor(r, name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	d, ok := sh.docs[string(name)]
	return d, ok
}

// served returns the document serving name, or ErrNotFound.
func (r *Repository) served(name string) (*Doc, error) {
	if d, ok := lookup(r, name); ok {
		return d, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// Drop removes the named document, reporting whether it existed: only a
// log can fail a drop, so the in-memory one returns no error. Snapshots
// pinned before the drop keep reading the dropped document; nothing
// else reaches it.
func (r *Repository) Drop(name string) bool {
	sh := shardFor(r, name)
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
	d, err := r.served(name)
	if err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return fn(d.sess)
}

// Batch runs build against the named document's live tree under the
// write lock and commits the ops it queues on b as one transaction
// through the commit routine (txn.go): one order verification for the
// whole batch, and all of it or none. Navigate the tree to find
// reference nodes and queue ops on b — the document's own batch,
// emptied when the commit returns: valid only inside build. build must
// not mutate the tree itself or call back into the repository (see the
// package doc on re-entrancy). It returns the number of elements the
// transaction inserted; the committed nodes are read through Query,
// View or a Snapshot.
func (r *Repository) Batch(name string, build func(*xmltree.Document, *update.Batch) error) (int, error) {
	return r.batch(name, logPolicy{}, build)
}

// batch is Batch under a log policy: the in-memory Batch logs nothing,
// the leader's appends a RecBatch record.
func (r *Repository) batch(name string, pol logPolicy, build func(*xmltree.Document, *update.Batch) error) (int, error) {
	var md [1]MultiDoc
	return r.commit([]string{name}, pol, md[:], func(int) error {
		return build(md[0].Document(), md[0].b)
	})
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
}

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
// The MultiDocs are valid only inside build. It returns the number of
// elements the transaction inserted, summed over the documents.
func (r *Repository) MultiBatch(names []string, build func(map[string]*MultiDoc) error) (int, error) {
	return r.commitByName(names, logPolicy{}, build)
}

// commitByName is commit for the callers whose build takes a map (the
// two MultiBatch): the only place a transaction is keyed by name.
func (r *Repository) commitByName(names []string, pol logPolicy, build func(map[string]*MultiDoc) error) (int, error) {
	mds := make([]MultiDoc, len(names))
	return r.commit(names, pol, mds, func(n int) error {
		m := make(map[string]*MultiDoc, n)
		for i := range mds[:n] {
			m[mds[i].doc.name] = &mds[i]
		}
		return build(m)
	})
}

// Query evaluates a location path against the named document under the
// read lock using structural navigation and returns detached deep
// copies of the matches, so the results stay valid — and race-free
// against concurrent writers — after the lock is released. Large result
// sets pay the copy; use QueryFunc for zero-copy access scoped inside
// the lock.
func (r *Repository) Query(name, path string) ([]*xmltree.Node, error) {
	var out []*xmltree.Node
	err := r.QueryFunc(name, path, func(nodes []*xmltree.Node) error {
		out = make([]*xmltree.Node, len(nodes))
		for i, n := range nodes {
			out[i] = n.Clone()
		}
		return nil
	})
	return out, err
}

// QueryFunc evaluates a location path against the named document under
// the read lock and hands the live result nodes to fn. The nodes belong
// to the locked document: fn must not mutate them, retain them past its
// return, or call back into the repository (see the package doc on
// re-entrancy). Nor may fn write to the slice or keep it: a deep step by
// name hands fn a capacity-limited slice of the document's element
// index, uncopied, and the read lock keeps every writer out until fn
// returns.
func (r *Repository) QueryFunc(name, path string, fn func([]*xmltree.Node) error) error {
	d, err := r.served(name)
	if err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	nodes, err := d.sess.Engine().Query(path)
	if err != nil {
		return err
	}
	return fn(nodes)
}

// Scheme names the registry scheme the named document was opened
// under, and whether the document exists.
func (r *Repository) Scheme(name string) (string, bool) {
	d, ok := lookup(r, name)
	if !ok {
		return "", false
	}
	return d.scheme, true
}

// Verify re-checks the named document's order invariant under the
// read lock. It is always the full pass.
func (r *Repository) Verify(name string) error { return r.View(name, (*update.Session).Verify) }

// Save serialises every document into one store image — a pack whose
// every record is its own, each record as a checkpoint writes it — as a
// consistent point-in-time snapshot: all document read locks are held
// simultaneously while the trees are encoded, so the image never
// captures a cross-document state that existed at no instant.
// Locks are acquired in sorted-name order — the single global order
// every multi-lock holder uses, MultiBatch's write locks included — so
// no Save, writer or snapshot can form a cycle against it. The
// membership is fixed at the moment of listing; documents opened or
// dropped during the acquisition are respectively excluded or
// retained.
func (r *Repository) Save() ([]byte, error) {
	names := r.Names()
	held := make([]*Doc, 0, len(names))
	for _, name := range names {
		if d, ok := lookup(r, name); ok {
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
	docs := make([]store.DocSnap, len(held))
	for i, d := range held {
		docs[i] = store.DocSnap{Name: d.name, Scheme: d.scheme, Tree: update.EncodeDocTree(d.sess.Document())}
	}
	return store.MarshalImage(docs), nil
}

// Load rebuilds a repository from a Save image: every document is
// decoded and reopened under its recorded scheme.
func Load(data []byte) (*Repository, error) {
	docs, err := store.UnmarshalImage(data)
	if err != nil {
		return nil, err
	}
	r := New()
	for _, d := range docs {
		if err := r.openSnap(d); err != nil {
			return nil, fmt.Errorf("repo: load %q: %w", d.Name, err)
		}
	}
	return r, nil
}

// openSnap decodes a document record's tree and opens it in r under
// the record's name and scheme: a Load, and a recovery's checkpointed
// documents.
func (r *Repository) openSnap(s store.DocSnap) error {
	doc, err := update.DecodeDocTree(s.Tree)
	if err == nil {
		err = r.Open(s.Name, doc, s.Scheme)
	}
	return err
}
