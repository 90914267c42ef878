// Follower side: dials the leader, replays the replication stream
// into a follower-mode repository, and exposes the staleness bound
// (AppliedStamp / Lag) plus the lock-free MVCC read API while
// catching up. The catch-up protocol and failure handling follow
// docs/REPLICATION.md §3–§5.

package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"xmldyn/internal/repo"
	"xmldyn/internal/store"
	"xmldyn/internal/wal"
)

// DefaultAckEvery is the record cadence at which a follower reports
// its applied position back to the leader when
// FollowerOptions.AckEvery is zero. Heartbeats are always acked, so
// this only bounds ack traffic during backfill bursts.
const DefaultAckEvery = 32

// DefaultReconnectDelay is the pause between reconnect attempts when
// FollowerOptions.ReconnectDelay is zero.
const DefaultReconnectDelay = 250 * time.Millisecond

// errStateLost marks session failures that reconnecting cannot cure:
// the follower's on-disk state must be wiped and rebuilt from a fresh
// checkpoint bootstrap. It wraps bootstrap-install failures; together
// with repo.ErrDiverged it defines the wipe-and-rebootstrap class of
// the failure matrix (docs/REPLICATION.md §5).
var errStateLost = errors.New("replica: follower state unusable")

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Store configures the follower's local durable layer (fsync
	// policy, recovery parallelism). Rotation and checkpoint settings
	// are ignored: the follower mirrors the leader's segment boundaries
	// and never checkpoints locally.
	Store repo.DurableOptions
	// Dial opens a connection to the leader. Required for Run; RunOnce
	// can be driven with externally created connections instead.
	Dial func() (net.Conn, error)
	// ReconnectDelay is the pause between sessions after a failure
	// (zero means DefaultReconnectDelay).
	ReconnectDelay time.Duration
	// AckEvery is the record cadence for applied-position acks (zero
	// means DefaultAckEvery).
	AckEvery int
}

// Follower is a live read replica: it owns a follower-mode repository
// and drives the replication session loop against a leader's Shipper.
// Reads (Snapshot, SnapshotAt, …) are lock-free MVCC and safe at any
// time, including mid-bootstrap; Lag and AppliedStamp bound their
// staleness explicitly.
type Follower struct {
	dir  string
	opts FollowerOptions

	mu        sync.Mutex
	fr        *repo.FollowerRepository // guarded by mu (swapped on re-bootstrap)
	applied   uint64                   // guarded by mu
	target    uint64                   // guarded by mu
	leaderEnd wal.Position             // guarded by mu
	conn      net.Conn                 // guarded by mu
	closed    bool                     // guarded by mu
	stop      chan struct{}
}

// OpenFollower opens (or creates) the follower state at dir. A replay
// failure — the signature of a crash mid-bootstrap, or of a leader
// divergence detected on a previous session — is handled by the
// documented recovery: wipe the directory's replicated state and
// start over from an empty follower, which forces a fresh checkpoint
// bootstrap on the first session.
func OpenFollower(dir string, opts FollowerOptions) (*Follower, error) {
	fr, err := repo.OpenFollower(dir, opts.Store)
	if errors.Is(err, repo.ErrReplay) {
		if werr := repo.WipeFollowerState(dir); werr != nil {
			return nil, werr
		}
		fr, err = repo.OpenFollower(dir, opts.Store)
	}
	if err != nil {
		return nil, err
	}
	return &Follower{dir: dir, opts: opts, fr: fr, stop: make(chan struct{})}, nil
}

func (f *Follower) ackEvery() int {
	if f.opts.AckEvery > 0 {
		return f.opts.AckEvery
	}
	return DefaultAckEvery
}

func (f *Follower) reconnectDelay() time.Duration {
	if f.opts.ReconnectDelay > 0 {
		return f.opts.ReconnectDelay
	}
	return DefaultReconnectDelay
}

// repoNow returns the current follower repository (stable for the
// caller's use; a re-bootstrap swap only happens between sessions,
// and the old value keeps serving reads until closed).
func (f *Follower) repoNow() *repo.FollowerRepository {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fr
}

// Lag is the follower's staleness bound in stream bytes: the distance
// between the leader's last announced append end and what this
// follower has durably applied, measured with the identical byte
// accounting on both sides (record frames plus segment headers). Zero
// means the follower has applied every byte the leader had appended
// as of the last heartbeat — after an idle leader's heartbeat, Lag
// reaching 0 is deterministic, not best-effort.
func (f *Follower) Lag() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.applied >= f.target {
		return 0
	}
	return f.target - f.applied
}

// AppliedStamp is the follower repository's current version stamp —
// the monotone per-replica counter SnapshotAt addresses. It is
// follower-local (it resets on restart and re-bootstrap); cross-site
// ordering comes from Position, not stamps.
func (f *Follower) AppliedStamp() uint64 { return f.repoNow().Stamp() }

// Position is the follower's durable applied WAL position.
func (f *Follower) Position() wal.Position { return f.repoNow().Position() }

// LeaderEnd is the leader's append end position as of the last
// heartbeat (zero before the first heartbeat of the first session).
func (f *Follower) LeaderEnd() wal.Position {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaderEnd
}

// Repo exposes the underlying follower repository for its full read
// API (Query, Names, Verify, …). The returned value is the current
// one; after a wipe-and-rebootstrap a new repository replaces it, so
// long-lived readers should re-fetch rather than cache.
func (f *Follower) Repo() *repo.FollowerRepository { return f.repoNow() }

// Snapshot pins a lock-free MVCC snapshot of the named documents (all
// documents when none are named) at the follower's current stamp.
func (f *Follower) Snapshot(names ...string) (*repo.Snapshot, error) {
	return f.repoNow().Snapshot(names...)
}

// SnapshotAt pins a snapshot at an earlier follower-local stamp, if
// its versions are still retained.
func (f *Follower) SnapshotAt(stamp uint64, names ...string) (*repo.Snapshot, error) {
	return f.repoNow().SnapshotAt(stamp, names...)
}

// VersionStats reports the follower repository's version-chain gauges.
func (f *Follower) VersionStats() repo.VersionStats { return f.repoNow().VersionStats() }

// Close stops the session loop and closes the follower repository.
func (f *Follower) Close() error {
	fr := f.beginClose()
	if fr == nil {
		return nil
	}
	return fr.Close()
}

// beginClose marks the follower closed and severs the live connection,
// returning the repository to close (nil when already closed).
func (f *Follower) beginClose() *repo.FollowerRepository {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	close(f.stop)
	if f.conn != nil {
		_ = f.conn.Close()
	}
	return f.fr
}

// Run drives the session loop until Close: dial, run one session,
// classify the failure (reconnect-and-resume vs wipe-and-rebootstrap),
// pause, repeat. It returns nil after Close, or the first fatal error
// (a wipe that cannot be completed).
func (f *Follower) Run() error {
	if f.opts.Dial == nil {
		return fmt.Errorf("replica: FollowerOptions.Dial is required for Run")
	}
	for {
		select {
		case <-f.stop:
			return nil
		default:
		}
		conn, err := f.opts.Dial()
		if err == nil {
			err = f.RunOnce(conn)
		}
		f.mu.Lock()
		closed := f.closed
		f.mu.Unlock()
		if closed {
			return nil
		}
		if errors.Is(err, repo.ErrDiverged) || errors.Is(err, errStateLost) {
			if rerr := f.rebootstrap(); rerr != nil {
				return rerr
			}
		}
		select {
		case <-f.stop:
			return nil
		case <-time.After(f.reconnectDelay()):
		}
	}
}

// rebootstrap discards the follower's replicated state entirely and
// reopens empty, so the next session starts with a fresh checkpoint
// bootstrap. This is the documented response to divergence and to
// install failures; plain transport errors never reach here.
func (f *Follower) rebootstrap() error {
	f.mu.Lock()
	old := f.fr
	f.mu.Unlock()
	if err := old.Close(); err != nil && !errors.Is(err, repo.ErrClosed) {
		return err
	}
	if err := repo.WipeFollowerState(f.dir); err != nil {
		return err
	}
	fr, err := repo.OpenFollower(f.dir, f.opts.Store)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.fr = fr
	f.applied, f.target = 0, 0
	f.mu.Unlock()
	return nil
}

// beginSession registers conn as the live connection (so Close can
// sever it) and resets the session-relative staleness counters.
func (f *Follower) beginSession(conn net.Conn) (*repo.FollowerRepository, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, repo.ErrClosed
	}
	f.conn = conn
	f.applied, f.target = 0, 0
	return f.fr, nil
}

// endSession forgets conn if it is still the registered one.
func (f *Follower) endSession(conn net.Conn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.conn == conn {
		f.conn = nil
	}
}

// RunOnce runs a single replication session on conn: handshake with
// the follower's durable resume position, then apply the stream until
// the connection fails or the Follower closes. The connection is
// always closed on return. Callers using Run never call this
// directly; it is exported for deterministic tests and custom
// transports.
func (f *Follower) RunOnce(conn net.Conn) error {
	fr, err := f.beginSession(conn)
	if err != nil {
		conn.Close()
		return err
	}
	defer func() {
		conn.Close()
		f.endSession(conn)
	}()

	fw := &frameWriter{w: conn}
	fw.end(appendHello(fw.begin(MsgHello), fr.Position()))
	if err := fw.flush(); err != nil {
		return err
	}

	r := &frameReader{r: bufio.NewReaderSize(conn, frameBytes)}
	var (
		snapFiles  []store.BootstrapFile
		snapExpect = -1 // announced file count; -1 means no bootstrap in progress
		sinceAck   int
		ack        = func() error {
			fw.end(appendAck(fw.begin(MsgAck), fr.Position()))
			return fw.flush()
		}
		bump = func(n uint64) { f.mu.Lock(); f.applied += n; f.mu.Unlock() }
	)
	for {
		typ, body, err := r.next()
		if err != nil {
			return err
		}
		switch typ {
		case MsgSnapBegin:
			if _, _, files, err := parseSnapBegin(body); err != nil {
				return err
			} else {
				snapExpect = files
				snapFiles = make([]store.BootstrapFile, 0, files)
			}
		case MsgSnapFile:
			if snapExpect < 0 {
				return fmt.Errorf("%w: snap-file outside bootstrap", ErrBadFrame)
			}
			name, data, err := parseSnapFile(body)
			if err != nil {
				return err
			}
			snapFiles = append(snapFiles, store.BootstrapFile{Name: name, Data: append([]byte(nil), data...)})
		case MsgSnapEnd:
			if snapExpect < 0 || len(snapFiles) != snapExpect {
				return fmt.Errorf("%w: bootstrap announced %d files, got %d", ErrBadFrame, snapExpect, len(snapFiles))
			}
			man, err := store.UnmarshalManifest(body)
			if err != nil {
				return fmt.Errorf("%w: %v", errStateLost, err)
			}
			img := store.BootstrapImage{Manifest: man, Raw: append([]byte(nil), body...), Files: snapFiles}
			if err := fr.InstallBootstrap(img); err != nil {
				return fmt.Errorf("%w: installing bootstrap: %v", errStateLost, err)
			}
			snapFiles, snapExpect = nil, -1
			f.mu.Lock()
			f.applied, f.target = 0, 0
			f.mu.Unlock()
			if err := ack(); err != nil {
				return err
			}
		case MsgSegStart:
			index, err := parseSegStart(body)
			if err != nil {
				return err
			}
			if err := fr.BeginSegment(index); err != nil {
				return err
			}
			bump(uint64(wal.HeaderSize))
		case MsgRecord:
			after, payload, err := parseRecord(body)
			if err != nil {
				return err
			}
			// Duplicate / reorder / skip detection: the record's declared
			// end position must be exactly one frame past our current
			// append position, or the stream is not the contiguous
			// continuation of what we have — tear the connection down and
			// resume from the durable position instead of corrupting the
			// replica.
			cur := fr.Position()
			want := wal.Position{Segment: cur.Segment, Offset: cur.Offset + wal.FrameHeaderSize + int64(len(payload))}
			if after != want {
				return fmt.Errorf("%w: record ends at %v, expected %v", ErrBadFrame, after, want)
			}
			if err := fr.ApplyRecord(payload); err != nil {
				return err
			}
			bump(uint64(wal.FrameHeaderSize) + uint64(len(payload)))
			if sinceAck++; sinceAck >= f.ackEvery() {
				sinceAck = 0
				if err := ack(); err != nil {
					return err
				}
			}
		case MsgHeartbeat:
			end, sessionBytes, err := parseHeartbeat(body)
			if err != nil {
				return err
			}
			f.mu.Lock()
			if sessionBytes > f.target {
				f.target = sessionBytes
			}
			f.leaderEnd = end
			f.mu.Unlock()
			sinceAck = 0
			if err := ack(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unexpected inbound type %d", ErrBadFrame, typ)
		}
	}
}
