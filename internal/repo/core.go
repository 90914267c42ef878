// The durable core: everything a leader (DurableRepository) and a
// follower (FollowerRepository) have in common, written once and
// embedded by both. A logged update is a function old-tree → new-tree;
// replaying it at recovery and applying it live on a replica are the
// same function, so they are the same code here:
//
//   - recover rebuilds the in-memory repository from a directory
//     (current pack and the packs it references → WAL replay → log
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
	"cmp"
	"errors"
	"fmt"
	"io/fs"
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
	walFirst uint64 // first live segment index, as the current pack records
	closed   bool   // guarded by commitMu
	// packs holds the size in bytes of the current pack and of every
	// pack it references, by generation: the packs a sweep keeps, and
	// what a leader's checkpoint weighs live records against. Written
	// by recover and, on a leader, under its checkpoint lock.
	packs map[uint64]int64
	// hooks are the crash matrices' seams; production code never sets
	// them.
	hooks stepHooks
}

// stepHooks fire, when set, between the externally visible steps of a
// leader's checkpoint and of a follower's bootstrap install, so the
// crash matrices can image the directory at every kill point. A
// checkpoint fires afterCut once its fresh segment exists (its pack not
// yet written) and afterPack once its pack is current, the commit lock
// is released and dead files are not yet retired. An install fires
// afterSegments once the old segments and packs are gone, afterPackFile
// as each older pack of the image lands, afterWAL once the fresh empty
// segment exists, and afterPack once the image's current pack is in
// place.
type stepHooks struct {
	afterCut      func()
	afterSegments func()
	afterPackFile func(file string)
	afterWAL      func()
	afterPack     func()
}

// repo returns the installed in-memory repository.
func (c *durableCore) repo() *Repository { return c.mem.Load() }

// recover rebuilds the installed state from c.dir: it reads the
// current pack and each pack it references, once each
// (store.ReadPacks), decodes their records on a worker pool bounded by
// GOMAXPROCS, replays the live WAL segments from the pack's first live
// index on the same pool — partitioned by document; per-document record
// order is preserved and RecMulti records are barriers — reopens the
// log for appending with any torn tail truncated, and removes the files
// the pack does not cover. Each loaded document records where its
// record is (Doc.ckpt); replay advances the version sequence of every
// document it touches, which is what marks those dirty. A directory
// with no pack is returned as the bare fs.ErrNotExist error (a fresh
// directory, not corruption); every other failure — a directory in the
// per-file layout packs replaced, a missing referenced pack or first
// live segment included — wraps ErrReplay, before anything is written.
// The installed state is replaced only on success.
func (c *durableCore) recover() error {
	pack, packs, err := store.ReadPacks(c.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrReplay, err)
	}
	r := New()
	workers := runtime.GOMAXPROCS(0)
	if c.serialRecovery {
		workers = 1
	}
	if err := loadRecords(r, pack.Docs, packs, workers); err != nil {
		return fmt.Errorf("%w: %w", ErrReplay, err)
	}
	info, err := wal.ReplayPartitioned(c.dir, pack.WALFirst, workers, func(payload []byte) (wal.Dispatch, error) {
		return routeRecord(r, payload)
	}, func(payload []byte) error {
		return applyRecord(r, payload)
	})
	if err != nil {
		return fmt.Errorf("%w: %w", ErrReplay, err)
	}
	log, err := wal.OpenAt(c.dir, info, c.opts.walOptions())
	if err != nil {
		return fmt.Errorf("%w: reopen log: %w", ErrReplay, err)
	}
	sizes := make(map[uint64]int64, len(packs))
	for gen, data := range packs {
		sizes[gen] = int64(len(data))
	}
	c.mem.Store(r)
	c.log, c.gen, c.walFirst, c.packs = log, pack.Gen, pack.WALFirst, sizes
	_ = sweepDir(c.dir, pack.WALFirst, sizes)
	return nil
}

// loadRecords decodes the records entries name — each in packs, by
// generation — on a pool of workers goroutines, each taking the next
// entry by index until none is left or a load has failed, and registers
// each document in r (the shard map is mutex-guarded, so concurrent
// registration is safe; entry names are unique by pack validation). The
// first error is returned. A record must hold the document its entry
// names (store.UnmarshalRecord), so a misplaced reference fails
// recovery loudly rather than loading a document under the wrong name.
func loadRecords(r *Repository, entries []store.PackDoc, packs map[uint64][]byte, workers int) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int   // guarded by mu
		firstErr error // guarded by mu
	)
	for range max(1, min(workers, len(entries))) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := firstErr != nil || i >= len(entries)
				mu.Unlock()
				if stop {
					return
				}
				if err := loadRecord(r, entries[i], packs[entries[i].Ref.Gen]); err != nil {
					mu.Lock()
					firstErr = cmp.Or(firstErr, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// loadRecord loads one entry's record from data, the bytes of the pack
// that holds it, into r. The document keeps nothing of data:
// DecodeDocTree copies out what it keeps.
func loadRecord(r *Repository, e store.PackDoc, data []byte) error {
	snap, err := store.UnmarshalRecord(data, e)
	if err == nil {
		err = r.openSnap(snap)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", store.PackName(e.Ref.Gen), err)
	}
	// The loaded slot is what its record captures: clean until a
	// replayed record moves it.
	doc, _ := lookup(r, e.Name)
	doc.ckpt, doc.ckptSeq = e.Ref, doc.Version()
	return nil
}

// routeRecord partitions a WAL record for parallel replay without
// decoding its body: per-document records route by the document name
// parseRecord slices out of them — into a record that never leaves this
// stack frame — resolved against r, the recovering repository, so the
// key of a record whose document is open is that document's own string
// and only a name a RecOpen still queued on a lane introduces is copied.
// RecMulti, the only record touching several documents, is a barrier
// unparsed. Malformed payloads fall through to applyRecord's error
// reporting via a serial barrier, so parallel and serial replay reject
// the same logs.
func routeRecord(r *Repository, payload []byte) (wal.Dispatch, error) {
	if len(payload) > 0 && payload[0] != RecMulti {
		var one [1]recordPart
		if rec, err := parseRecord(payload, one[:0], r); err == nil {
			return wal.Dispatch{Key: rec.parts[0].name}, nil
		}
	}
	return wal.Dispatch{Barrier: true}, nil
}

// applyRecord applies one WAL record payload to r — during recovery
// replay and live on a follower alike. Op records run through the one
// commit routine (txn.go) under policy none, the record being logged
// already: the write lock of every document the record names is taken
// exactly as by the commit that logged it, the op programs are decoded
// against the locked pre-transaction trees, straight onto the
// documents' batches, and the parts apply all-or-nothing, so concurrent
// snapshot readers observe the record's transaction atomically (during
// recovery the locks are simply uncontended). The record's names are the
// open documents' own strings, so only a RecOpen copies its name. A
// record the state cannot follow — a document no well-formed log can
// name here, since Drop and every commit re-check membership under the
// document's write lock — is an error and leaves every tree as it was.
func applyRecord(r *Repository, payload []byte) error {
	var one [1]recordPart
	rec, err := parseRecord(payload, one[:0], r)
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
		return r.Open(rec.parts[0].name, doc, strings.Clone(rec.scheme))
	case RecDrop:
		if !r.Drop(rec.parts[0].name) {
			return fmt.Errorf("%w: drop of %q", ErrNotFound, rec.parts[0].name)
		}
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
	_, err = r.commit(names, logPolicy{}, mds, func(int) error {
		for i, p := range rec.parts {
			if err := mds[i].b.AddEncoded(p.data); err != nil {
				return fmt.Errorf("record part %q: %w", p.name, err)
			}
		}
		return nil
	})
	return err
}

// sweepDir deletes from dir every file of the durable layout that is
// not live: WAL segments below first, packs packs does not hold, stray
// atomic-write temp files, and files of the per-file layout packs
// replaced (recovery refuses those before any sweep, so only a
// follower's wipe meets them) — leftovers of a checkpoint or bootstrap
// install that crashed around its commit point, or what a completed one
// just retired. Segments at or above first are the live set (including
// an empty one a crashed checkpoint or rotation created: it is
// contiguous with the set and simply becomes the append tail). A first
// of math.MaxUint64 and no packs return the directory to the fresh
// state. Files outside the layout are never touched. Every dead file is
// attempted; the first removal error is returned.
func sweepDir(dir string, first uint64, packs map[uint64]int64) error {
	d, err := os.Open(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	names, err := d.Readdirnames(-1) // names only: no entry object, no sorted copy
	d.Close()
	if err != nil {
		return err
	}
	var firstErr error
	for _, name := range names {
		var dead bool
		if idx, ok := wal.ParseSegmentName(name); ok {
			dead = idx < first
		} else if gen, ok := store.ParsePackName(name); ok {
			_, live := packs[gen]
			dead = !live
		} else {
			dead = strings.HasSuffix(name, ".tmp") || store.IsLegacyName(name)
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
// but its header, durably, so a pack naming it as first live segment
// never references a missing file.
func emptySegment(dir string, index uint64, opts wal.Options) error {
	log, err := wal.Create(dir, index, opts)
	if err != nil {
		return err
	}
	return log.Close()
}

// shut marks the core closed and closes its log; on an already closed
// core it does nothing.
func (c *durableCore) shut() error {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}

// --- the read surface --------------------------------------------------------

// Dir returns the on-disk directory: the segment set a replication
// shipper tails and the packs it transfers on a leader, the mirrored
// copy of both on a follower.
func (c *durableCore) Dir() string { return c.dir }

// Generation returns the checkpoint generation of the installed pack
// (zero on a follower before its first bootstrap).
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
// to fn inside the read lock (zero-copy; see Repository.QueryFunc).
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

// VersionStats returns the in-memory repository's MVCC accounting.
func (c *durableCore) VersionStats() VersionStats { return c.repo().VersionStats() }
