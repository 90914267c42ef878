// The durable core: everything a leader (DurableRepository) and a
// follower (FollowerRepository) have in common, written once and
// embedded by both. A logged update is a function old-tree → new-tree;
// replaying it at recovery and applying it live on a replica are the
// same function, so they are the same code here:
//
//   - recover rebuilds the in-memory repository from a directory
//     (manifest → per-document snapshot files → WAL replay → log
//     reopened for appending → orphan sweep);
//   - applyRecord is the one WAL-record applier, always under the
//     write lock(s) of the documents the record touches;
//   - sweepDir is the one place that lists a directory to decide which
//     files are dead;
//   - the read surface is implemented on the core and promoted to both
//     roles by embedding.
//
// The in-memory Repository itself is deliberately not embedded: its
// mutators bypass the log, and an unlogged mutation is silently lost at
// recovery and shifts the structural paths of every later record.
// (File comment — the package doc lives in repo.go.)

package repo

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// durableCore is the state and behaviour shared by the two durable
// roles. The installed state (mem, log, gen, walFirst) is set by
// recover; mem is an atomic pointer so reads take no lock while a
// follower's bootstrap swaps a freshly recovered repository in.
type durableCore struct {
	dir  string
	opts DurableOptions
	// serialRecovery makes recover use one worker: the reference the
	// tests hold parallel recovery to. Production code never sets it.
	serialRecovery bool

	// commitMu: whoever appends to the log (leader writers, the
	// follower's applier) takes the read side; Close, the leader's
	// checkpoint cut and switch, and the follower's bootstrap install
	// take the write side.
	commitMu sync.RWMutex
	mem      atomic.Pointer[Repository]
	log      *wal.Log // nil while a follower has no installed state
	gen      uint64
	walFirst uint64 // first live segment index, as the manifest records
	closed   bool   // guarded by commitMu
}

// repo returns the installed in-memory repository.
func (c *durableCore) repo() *Repository { return c.mem.Load() }

// recover rebuilds the installed state from c.dir: it reads the
// manifest, decodes the per-document snapshot files it names on a
// worker pool bounded by GOMAXPROCS, replays
// the live WAL segments from the manifest's first live index on the
// same pool — partitioned by document; per-document record order is
// preserved and RecMulti records are barriers — reopens the log for
// appending with any torn tail truncated, and removes the files the
// manifest does not cover. loaded, if non-nil, sees the repository
// after the snapshots load and before replay advances any version
// sequence. A missing manifest is returned as the bare os.IsNotExist
// error (a fresh directory, not corruption); every other failure wraps
// ErrReplay. The installed state is replaced only on success.
func (c *durableCore) recover(loaded func(*Repository, store.Manifest)) error {
	man, err := store.ReadManifest(c.dir)
	if os.IsNotExist(err) {
		return err
	}
	if err != nil {
		return fmt.Errorf("%w: manifest: %w", ErrReplay, err)
	}
	r := New(c.opts.Repo)
	// The time-travel window resets on recovery: stamps are an
	// in-memory construct, and the replayed history must not re-enter
	// the retained window — a pre-crash stamp that numerically lands on
	// a replayed commit would otherwise alias an unrelated state
	// instead of failing with ErrVersionEvicted. Retention is
	// suppressed while snapshots load and the log replays, and restored
	// (happens-before the repository is published) for live commits.
	retain := r.retain
	r.retain = 0
	workers := runtime.GOMAXPROCS(0)
	if c.serialRecovery {
		workers = 1
	}
	if err := loadDocSnaps(c.dir, r, man.Docs, workers); err != nil {
		return fmt.Errorf("%w: %v", ErrReplay, err)
	}
	if loaded != nil {
		loaded(r, man)
	}
	info, err := wal.ReplayPartitioned(c.dir, man.WALFirst, workers, routeRecord, func(payload []byte) error {
		return applyRecord(r, payload)
	})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrReplay, err)
	}
	r.retain = retain
	log, err := wal.OpenAt(c.dir, info, c.opts.walOptions())
	if err != nil {
		return fmt.Errorf("%w: reopen log: %v", ErrReplay, err)
	}
	c.mem.Store(r)
	c.log, c.gen, c.walFirst = log, man.Gen, man.WALFirst
	_ = sweepDir(c.dir, &man)
	return nil
}

// loadDocSnaps reads and decodes the manifest's per-document snapshot
// files on a bounded worker pool and registers each document in r (the
// shard map is mutex-guarded, so concurrent registration is safe;
// entry names are unique by manifest validation). Each file's embedded
// document name must match the manifest entry that referenced it — a
// mismatch (hash collision, tampering, misplaced file) fails recovery
// loudly rather than loading a document under the wrong name.
func loadDocSnaps(dir string, r *Repository, docs []store.ManifestDoc, workers int) error {
	if workers > len(docs) {
		workers = len(docs)
	}
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for _, e := range docs {
		wg.Add(1)
		go func(e store.ManifestDoc) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			mu.Lock()
			stop := firstErr != nil
			mu.Unlock()
			if stop {
				return
			}
			data, err := os.ReadFile(filepath.Join(dir, e.File))
			if err != nil {
				fail(fmt.Errorf("snapshot %s: %v", e.File, err))
				return
			}
			snap, err := store.UnmarshalDocSnap(data)
			if err != nil {
				fail(fmt.Errorf("snapshot %s: %v", e.File, err))
				return
			}
			if snap.Name != e.Name {
				fail(fmt.Errorf("snapshot %s holds document %q, manifest expects %q", e.File, snap.Name, e.Name))
				return
			}
			doc, err := update.DecodeDocTree(snap.Tree)
			if err != nil {
				fail(fmt.Errorf("snapshot %s: %v", e.File, err))
				return
			}
			if _, err := r.Open(e.Name, doc, snap.Scheme); err != nil {
				fail(fmt.Errorf("snapshot %s: %v", e.File, err))
			}
		}(e)
	}
	wg.Wait()
	return firstErr
}

// routeRecord partitions a WAL record for parallel replay without
// decoding its body: per-document records route by the document name
// parseRecord slices out of them — into a record that never leaves this
// stack frame, the name its one allocation — and RecMulti, the only
// record touching several documents, is a barrier unparsed. Malformed
// payloads fall through to applyRecord's error reporting via a serial
// barrier, so parallel and serial replay reject the same logs.
func routeRecord(payload []byte) (wal.Dispatch, error) {
	if len(payload) > 0 && payload[0] != RecMulti {
		var one [1]recordPart
		if rec, err := parseRecord(payload, one[:0]); err == nil {
			return wal.Dispatch{Key: rec.parts[0].name}, nil
		}
	}
	return wal.Dispatch{Barrier: true}, nil
}

// applyRecord applies one WAL record payload to r — during recovery
// replay and live on a follower alike. Op records run through the one
// commit routine (txn.go) under the replay policy: the write lock of
// every document the record names is taken exactly as by the commit
// that logged it, the op programs are decoded against the locked
// pre-transaction trees, straight onto the documents' batches, and the
// parts apply all-or-nothing, so concurrent snapshot readers observe the
// record's transaction atomically (during recovery the locks are simply
// uncontended). A record the state cannot follow — a document no
// well-formed log can name here, since Drop and every commit re-check
// membership under the document's write lock — is an error and leaves
// every tree as it was.
func applyRecord(r *Repository, payload []byte) error {
	var one [1]recordPart
	rec, err := parseRecord(payload, one[:0])
	if err != nil {
		return err
	}
	switch rec.kind {
	case RecOpen:
		doc, err := update.DecodeDocTree(rec.parts[0].data)
		if err != nil {
			return err
		}
		// A copy of the scheme name: handing out rec's own field would
		// move rec, and the array behind its parts, to the heap.
		_, err = r.Open(rec.parts[0].name, doc, strings.Clone(rec.scheme))
		return err
	case RecDrop:
		r.Drop(rec.parts[0].name)
		return nil
	}
	// The parts are in the order commit locks the documents in — sorted
	// by name — so part i is queued on document i.
	var nameArr [inlineDocs]string
	var mdArr [inlineDocs]MultiDoc
	names, mds := nameArr[:0], mdArr[:0]
	for _, p := range rec.parts {
		names, mds = append(names, p.name), append(mds, MultiDoc{})
	}
	return r.commit(names, logPolicy{replay: true}, mds, func(int) error {
		for i, p := range rec.parts {
			if err := mds[i].b.AddEncoded(p.data); err != nil {
				return fmt.Errorf("record part %q: %w", p.name, err)
			}
		}
		return nil
	})
}

// sweepDir deletes from dir every file of the durable layout that live
// does not cover: WAL segments below live.WALFirst, per-document
// snapshot files live.Docs does not name, and stray atomic-write temp
// files — leftovers of a checkpoint or bootstrap install that crashed
// around its manifest switch, or the generation a completed one just
// retired. Segments at or above live.WALFirst are the live set
// (including an empty one a crashed checkpoint or rotation created: it
// is contiguous with the set and simply becomes the append tail). A nil
// live covers nothing, the manifest included: the directory returns to
// the fresh state. Files outside the layout are never touched. Every
// dead file is attempted; the first removal error is returned.
func sweepDir(dir string, live *store.Manifest) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	keep := map[string]bool{}
	first := uint64(math.MaxUint64)
	if live != nil {
		keep[store.ManifestName] = true
		first = live.WALFirst
		for _, e := range live.Docs {
			keep[e.File] = true
		}
	}
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		idx, isSeg := wal.ParseSegmentName(name)
		dead := false
		switch {
		case keep[name]:
		case isSeg:
			dead = idx < first
		default:
			dead = name == store.ManifestName || store.IsDocSnapName(name) || strings.HasSuffix(name, ".tmp")
		}
		if dead {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// emptySegment creates segment index of the log in dir holding nothing
// but its header, durably, so a manifest naming it as first live
// segment never references a missing file.
func emptySegment(dir string, index uint64, opts wal.Options) error {
	log, err := wal.Create(dir, index, opts)
	if err != nil {
		return err
	}
	return log.Close()
}

// shut marks the core closed and closes its log, reporting whether
// this call did the closing (false on an already closed core).
func (c *durableCore) shut() (bool, error) {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if c.closed {
		return false, nil
	}
	c.closed = true
	if c.log == nil {
		return true, nil
	}
	return true, c.log.Close()
}

// --- the read surface --------------------------------------------------------

// Dir returns the on-disk directory: the segment set a replication
// shipper tails and the checkpoint files it transfers on a leader, the
// mirrored copy of both on a follower.
func (c *durableCore) Dir() string { return c.dir }

// Generation returns the checkpoint generation of the installed
// manifest (zero on a follower before its first bootstrap).
func (c *durableCore) Generation() uint64 {
	c.commitMu.RLock()
	defer c.commitMu.RUnlock()
	return c.gen
}

// View runs fn with the named document's session under the read lock.
// fn must not mutate: beyond the data race it would be, an unlogged
// mutation is silently lost at recovery and shifts the structural
// paths of every later log record.
func (c *durableCore) View(name string, fn func(*update.Session) error) error {
	return c.repo().View(name, fn)
}

// Query evaluates a location path against the named document,
// returning detached deep copies of the matches.
func (c *durableCore) Query(name, path string) ([]*xmltree.Node, error) {
	return c.repo().Query(name, path)
}

// QueryFunc evaluates a location path and hands the live result nodes
// to fn inside the read lock (zero-copy; see Doc.QueryFunc).
func (c *durableCore) QueryFunc(name, path string, fn func([]*xmltree.Node) error) error {
	return c.repo().QueryFunc(name, path, fn)
}

// Names lists all document names, sorted.
func (c *durableCore) Names() []string { return c.repo().Names() }

// Len counts the documents.
func (c *durableCore) Len() int { return c.repo().Len() }

// Scheme names the registry scheme the named document was opened
// under, and whether the document exists.
func (c *durableCore) Scheme(name string) (string, bool) { return c.repo().Scheme(name) }

// Verify re-checks the named document's order invariant.
func (c *durableCore) Verify(name string) error { return c.repo().Verify(name) }

// Snapshot pins a consistent view of the named documents (all when
// names is empty); semantics exactly as Repository.Snapshot — reads on
// it hold no lock and are never blocked by a committer or the
// replication applier. Snapshots are an in-memory construct: they are
// never logged, and recovery starts with no versions
// (docs/CONCURRENCY.md §5).
func (c *durableCore) Snapshot(names ...string) (*Snapshot, error) {
	return c.repo().Snapshot(names...)
}

// SnapshotAt pins a time-travel view as of a commit stamp previously
// observed from Stamp or Snapshot.Stamps; semantics exactly as
// Repository.SnapshotAt. Stamps are local to this process — a
// follower's are NOT its leader's — and reset on recovery and on
// re-bootstrap.
func (c *durableCore) SnapshotAt(stamp uint64, names ...string) (*Snapshot, error) {
	return c.repo().SnapshotAt(stamp, names...)
}

// Stamp returns the current global commit stamp (see
// Repository.Stamp). On a follower it advances with every applied
// record, so it doubles as the replica's applied-stamp staleness
// handle (replica.Follower.AppliedStamp).
func (c *durableCore) Stamp() uint64 { return c.repo().Stamp() }

// VersionStats returns the in-memory repository's MVCC accounting.
func (c *durableCore) VersionStats() VersionStats { return c.repo().VersionStats() }
