// Follower-mode repository (docs/REPLICATION.md): a FollowerRepository
// is the storage half of a read replica, the durable core's second
// role. It owns a directory in the same on-disk shape as a leader's
// (manifest, doc snapshots, segmented WAL) but takes no local commits:
// records arrive from the replication transport (internal/replica)
// already serialised by the leader, are appended to the follower's own
// log — byte-identical to the leader's, because segment boundaries are
// mirrored via BeginSegment and frames are re-encoded deterministically
// — and then applied to the in-memory repository by the core's record
// applier, under the same locks the leader's commit took, so MVCC
// snapshot readers observe each replicated transaction atomically.
//
// Lock order (follower side): commitMu (the applier shares;
// InstallBootstrap and Close exclusive) → walMu (serialises appends
// and guards the applied position) → doc.mu (sorted-name order for
// multi records). The applier is a single goroutine by contract;
// commitMu's read side only makes the installed log stable against a
// concurrent bootstrap swap. Reads take none of these: the in-memory
// repository is reached through the core's atomic pointer.

package repo

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"xmldyn/internal/store"
	"xmldyn/internal/wal"
)

// ErrDiverged reports a replicated record that the leader committed
// but the follower's in-memory state rejected: the replica's history
// no longer matches the leader's (typically after an async-policy
// leader crash lost a tail the follower had applied). The replica
// layer reacts by wiping the follower state and re-bootstrapping —
// reconnecting alone cannot help, because recovery replays the
// appended record and fails identically.
var ErrDiverged = errors.New("repo: replicated record diverged from local state")

// errNotInstalled refuses stream records while the follower has no
// installed state; the replica layer answers with a bootstrap.
var errNotInstalled = errors.New("repo: follower has no installed state (bootstrap required)")

// followerHooks fire, when set, after each InstallBootstrap step,
// letting the bootstrap crash matrix image the directory mid-install
// and prove the documented recovery (reopen, or wipe-and-rebootstrap)
// from every kill point.
type followerHooks struct {
	afterSnapFile func(file string)
	afterSegments func()
	afterWAL      func()
	afterManifest func()
}

// FollowerRepository is a repository replica fed by a replication
// stream instead of local commits. It serves the core's full read API
// (Snapshot, SnapshotAt, Query, …) lock-free while the applier streams
// records in; mutating methods do not exist — the only writers are
// ApplyRecord, BeginSegment and InstallBootstrap, driven by
// internal/replica's Follower. Open one with OpenFollower.
type FollowerRepository struct {
	durableCore

	// walMu serialises replicated appends.
	walMu sync.Mutex
	pos   wal.Position // guarded by walMu
	// hooks are the bootstrap crash-matrix test seams; production code
	// never sets them.
	hooks followerHooks
}

// OpenFollower opens (or creates) a follower-state directory and
// recovers it exactly as OpenDurable would — the same core recovery:
// snapshots, replay, torn-tail truncation, orphan sweep — minus
// everything leader-specific: no checkpointer, no commit API. A
// directory with no manifest opens empty, with no log: the first
// replication session bootstraps it. A recovery failure is reported
// wrapped in ErrReplay; the replica layer treats that as "wipe and
// re-bootstrap" (WipeFollowerState), since a follower's whole state is
// reconstructible from its leader. Size-based segment rotation is
// disabled whatever opts.SegmentBytes says — the follower mirrors the
// LEADER's segment boundaries via BeginSegment, and a local rotation
// would desynchronise the byte-identical mirror — and
// opts.AutoCheckpointBytes is ignored for the same reason: followers
// never checkpoint; their log is bounded by re-bootstrapping instead.
func OpenFollower(dir string, opts DurableOptions) (*FollowerRepository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts.SegmentBytes = -1
	f := &FollowerRepository{durableCore: durableCore{dir: dir, opts: opts}}
	f.mem.Store(New(opts.Repo))
	if err := f.reload(); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return f, nil
}

// reload runs the core recovery and anchors the applied position at
// the recovered log's end.
func (f *FollowerRepository) reload() error {
	if err := f.recover(nil); err != nil {
		return err
	}
	f.setPos(f.log.Position())
	return nil
}

func (f *FollowerRepository) setPos(pos wal.Position) {
	f.walMu.Lock()
	f.pos = pos
	f.walMu.Unlock()
}

// WipeFollowerState deletes every file OpenFollower/InstallBootstrap
// manage in dir — manifest, doc snapshots, WAL segments, temp files —
// returning the directory to the fresh state a bootstrap can install
// into. Unrelated files are left alone. This is the replica layer's
// recovery from an unreadable follower directory: a follower's state
// is a pure function of its leader, so wiping loses nothing a
// re-bootstrap does not restore.
func WipeFollowerState(dir string) error { return sweepDir(dir, nil) }

// InstallBootstrap replaces the follower's whole state with a leader
// checkpoint image: snapshot files are written first, then every old
// segment is deleted, a fresh empty segment is created at the image's
// first live index, and the manifest write commits the switch — after
// which the core recovery rebuilds the in-memory repository from the
// installed files and swaps it in (open snapshots on the old state
// stay valid; their versions are reference-counted).
//
// Writing the snapshot files destroys nothing; a failure there leaves
// the follower as it was. Every later step destroys part of the old
// state, so from the segment wipe on the old log is closed and a
// failure leaves the follower with no installed state, exactly like a
// fresh directory: ApplyRecord and BeginSegment refuse, Position is
// zero, and the next session's Hello forces a new bootstrap, which
// installs over whatever this attempt left behind. A crash between the
// segment wipe and the manifest write leaves the OLD manifest pointing
// at deleted segments; OpenFollower then fails with ErrReplay and the
// replica layer wipes and re-bootstraps — documented,
// reconstructible-by-design recovery, not data loss.
func (f *FollowerRepository) InstallBootstrap(img store.BootstrapImage) (err error) {
	f.commitMu.Lock()
	defer f.commitMu.Unlock()
	if f.closed {
		return ErrClosed
	}
	// Step 1: snapshot files. Atomic writes; until the manifest switch
	// they are orphans a recovery sweep may delete.
	for _, bf := range img.Files {
		if err := store.WriteFileAtomic(filepath.Join(f.dir, bf.Name), bf.Data); err != nil {
			return err
		}
		if f.hooks.afterSnapFile != nil {
			f.hooks.afterSnapFile(bf.Name)
		}
	}
	// The old state dies here. Its log is closed first so no later
	// append can land in an unlinked segment; the old in-memory
	// repository keeps serving reads until the new one is swapped in.
	if f.log != nil {
		_ = f.log.Close()
		f.log = nil
	}
	f.setPos(wal.Position{})
	defer func() {
		if err != nil {
			f.gen = 0
			f.mem.Store(New(f.opts.Repo))
		}
	}()
	// Step 2: drop the old segment set — it belongs to the state being
	// replaced and is not contiguous with the image's WAL range — and
	// the old state's snapshot files with it.
	keep := store.Manifest{WALFirst: math.MaxUint64, Docs: img.Manifest.Docs}
	if err := sweepDir(f.dir, &keep); err != nil {
		return err
	}
	if f.hooks.afterSegments != nil {
		f.hooks.afterSegments()
	}
	// Step 3: an empty segment at the image's first live index, so the
	// manifest never references a missing segment once it lands.
	if err := emptySegment(f.dir, img.Manifest.WALFirst, f.opts.walOptions()); err != nil {
		return err
	}
	if f.hooks.afterWAL != nil {
		f.hooks.afterWAL()
	}
	// Step 4: the manifest write is the commit point. The leader's raw
	// bytes are written back verbatim, keeping the installed manifest
	// byte-identical to the leader's.
	if err := store.WriteFileAtomic(filepath.Join(f.dir, store.ManifestName), img.Raw); err != nil {
		return err
	}
	if f.hooks.afterManifest != nil {
		f.hooks.afterManifest()
	}
	// Step 5: recover from the installed files, as a restart would.
	return f.reload()
}

// BeginSegment mirrors a leader segment boundary: it rotates the
// follower's log into segment index, which must be exactly the active
// index plus one — the stream ships every boundary explicitly (empty
// segments included), so any other index means records were lost in
// transit and the mirror would diverge; that is rejected with
// wal.ErrMissingSegment before any byte lands.
func (f *FollowerRepository) BeginSegment(index uint64) error {
	f.commitMu.RLock()
	defer f.commitMu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	if f.log == nil {
		return errNotInstalled
	}
	f.walMu.Lock()
	defer f.walMu.Unlock()
	want := f.log.ActiveIndex() + 1
	if index != want {
		return fmt.Errorf("%w: non-contiguous segment stream: expected %s, found %s",
			wal.ErrMissingSegment, wal.SegmentName(want), wal.SegmentName(index))
	}
	if _, err := f.log.Rotate(); err != nil {
		return err
	}
	f.pos = f.log.Position()
	return nil
}

// ApplyRecord appends one replicated record payload to the follower's
// log and applies it to the in-memory repository with the core's
// record applier — the function recovery replays the same record with.
// The record is re-framed by the local Append exactly as the leader
// framed it (same length-prefix + CRC codec), which is what keeps the
// segment files byte-identical. An apply failure after a successful
// append means the stream and this replica's memory diverged — the
// caller must treat the session as poisoned and re-open (recovery
// replays the appended record and fails the same way, steering the
// replica layer to wipe and re-bootstrap).
func (f *FollowerRepository) ApplyRecord(payload []byte) error {
	f.commitMu.RLock()
	defer f.commitMu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	if f.log == nil {
		return errNotInstalled
	}
	f.walMu.Lock()
	defer f.walMu.Unlock()
	if err := f.log.Append(payload); err != nil {
		return err
	}
	if err := applyRecord(f.repo(), payload); err != nil {
		return fmt.Errorf("%w: %v", ErrDiverged, err)
	}
	f.pos = f.log.Position()
	return nil
}

// Position returns the follower's durable applied position: the byte
// boundary just past the last record appended to its log, zero while
// no state is installed. After a restart this is where replication
// resumes from (the Hello position).
func (f *FollowerRepository) Position() wal.Position {
	f.walMu.Lock()
	defer f.walMu.Unlock()
	return f.pos
}

// Close closes the follower's log. Open snapshots stay readable;
// further applies and bootstraps fail with ErrClosed.
func (f *FollowerRepository) Close() error {
	_, err := f.shut()
	return err
}
