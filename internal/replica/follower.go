// Follower side: dials the leader, replays the replication stream
// into a follower-mode repository, and exposes the staleness bound
// (Position / Lag) plus the lock-free MVCC read API while
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

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Store configures the follower's local durable layer (fsync
	// policy and flush interval). Rotation and checkpoint settings are
	// ignored: the follower mirrors the leader's segment boundaries and
	// never checkpoints locally.
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
// Reads (Snapshot, and Repo's Query, …) are lock-free MVCC and safe at
// any time, including mid-bootstrap; Lag and Position bound their
// staleness explicitly.
type Follower struct {
	opts FollowerOptions
	fr   *repo.FollowerRepository // one for the Follower's life; bootstraps install in place

	mu      sync.Mutex
	applied uint64   // guarded by mu
	target  uint64   // guarded by mu
	conn    net.Conn // guarded by mu
	closed  bool     // guarded by mu
	stop    chan struct{}
}

// OpenFollower opens (or creates) the follower state at dir. A replay
// failure — the signature of a crash mid-bootstrap, or of a crash after
// a divergence and before its bootstrap — is handled by the documented
// recovery: wipe the directory's replicated state and start over from
// an empty follower, which forces a fresh checkpoint bootstrap on the
// first session.
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
	return &Follower{opts: opts, fr: fr, stop: make(chan struct{})}, nil
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

// Position is the follower's durable applied WAL position.
func (f *Follower) Position() wal.Position { return f.fr.Position() }

// Repo exposes the underlying follower repository for its full read
// API (Query, Names, Verify, …). It is the same repository for the
// Follower's whole life: every bootstrap, a divergence's included,
// installs into it in place, so a cached handle stays current.
func (f *Follower) Repo() *repo.FollowerRepository { return f.fr }

// Snapshot pins a lock-free MVCC snapshot of the named documents (all
// documents when none are named) at the follower's applied state.
func (f *Follower) Snapshot(names ...string) (*repo.Snapshot, error) {
	return f.fr.Snapshot(names...)
}

// Close stops the session loop and closes the follower repository.
func (f *Follower) Close() error {
	if !f.beginClose() {
		return nil
	}
	return f.fr.Close()
}

// beginClose marks the follower closed and severs the live connection;
// it reports false when the follower was already closed.
func (f *Follower) beginClose() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false
	}
	f.closed = true
	close(f.stop)
	if f.conn != nil {
		_ = f.conn.Close()
	}
	return true
}

// Run drives the session loop until Close: dial, run one session,
// pause, repeat. Every session failure reconnects; the Hello position
// decides between resuming and bootstrapping (a divergence, or an
// install that failed after deleting the old state, leaves it at zero,
// which asks for a bootstrap). It returns nil after Close.
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
		if conn, err := f.opts.Dial(); err == nil {
			_ = f.RunOnce(conn)
		}
		select {
		case <-f.stop:
			return nil
		case <-time.After(f.reconnectDelay()):
		}
	}
}

// beginSession registers conn as the live connection (so Close can
// sever it) and resets the session-relative staleness counters.
func (f *Follower) beginSession(conn net.Conn) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return repo.ErrClosed
	}
	f.conn = conn
	f.applied, f.target = 0, 0
	return nil
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
	if err := f.beginSession(conn); err != nil {
		conn.Close()
		return err
	}
	defer func() {
		conn.Close()
		f.endSession(conn)
	}()

	fw := &frameWriter{w: conn}
	fw.end(appendHello(fw.begin(MsgHello), f.fr.Position()))
	if err := fw.flush(); err != nil {
		return err
	}

	r := &frameReader{r: bufio.NewReaderSize(conn, frameBytes)}
	var (
		snapFiles  []store.BootstrapFile
		snapExpect = -1 // announced file count; -1 means no bootstrap in progress
		sinceAck   int
		ack        = func() error {
			fw.end(appendAck(fw.begin(MsgAck), f.fr.Position()))
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
			pack, err := store.UnmarshalPack(body)
			if err != nil {
				return err
			}
			img := store.BootstrapImage{Manifest: pack, Raw: append([]byte(nil), body...), Files: snapFiles}
			if err := f.fr.InstallBootstrap(img); err != nil {
				return fmt.Errorf("replica: installing bootstrap: %w", err)
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
			if err := f.fr.BeginSegment(index); err != nil {
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
			cur := f.fr.Position()
			want := wal.Position{Segment: cur.Segment, Offset: cur.Offset + wal.FrameHeaderSize + int64(len(payload))}
			if after != want {
				return fmt.Errorf("%w: record ends at %v, expected %v", ErrBadFrame, after, want)
			}
			if err := f.fr.ApplyRecord(payload); err != nil {
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
			_, sessionBytes, err := parseHeartbeat(body)
			if err != nil {
				return err
			}
			f.mu.Lock()
			if sessionBytes > f.target {
				f.target = sessionBytes
			}
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
