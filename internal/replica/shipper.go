// Leader side: the Shipper serves the replication protocol
// (docs/REPLICATION.md) over accepted connections — handshake,
// optional checkpoint bootstrap, then the backfill-and-tail record
// stream with idle heartbeats. One session per connection; sessions
// are independent and any number of followers may be attached.

package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xmldyn/internal/repo"
	"xmldyn/internal/store"
	"xmldyn/internal/wal"
)

// DefaultHeartbeat is the idle heartbeat period used when
// ShipperOptions.Heartbeat is zero: while a session has nothing to
// ship it re-sends its staleness target this often, so a follower can
// distinguish "caught up" from "leader gone".
const DefaultHeartbeat = 500 * time.Millisecond

// bootstrapAttempts bounds the image-load retry loop: each retry
// means a checkpoint raced the load, which converges in one or two
// rounds.
const bootstrapAttempts = 10

// ErrShipperClosed reports an operation on a closed Shipper.
var ErrShipperClosed = errors.New("replica: shipper is closed")

// ShipperOptions configures a Shipper.
type ShipperOptions struct {
	// Heartbeat overrides the idle heartbeat period (zero means
	// DefaultHeartbeat).
	Heartbeat time.Duration
}

// SessionInfo is an observability snapshot of one follower session.
type SessionInfo struct {
	// Sent is the position just past the last record or hand-off
	// shipped to the follower.
	Sent wal.Position
	// Acked is the follower's last reported applied position (what it
	// has replayed, not what it has synced).
	Acked wal.Position
	// Bootstrapped reports whether this session began with a
	// checkpoint bootstrap (as opposed to resuming from the follower's
	// position).
	Bootstrapped bool
}

// session is one follower connection's server-side state.
type session struct {
	conn net.Conn
	mu   sync.Mutex
	info SessionInfo
}

func (se *session) setSent(pos wal.Position) {
	se.mu.Lock()
	se.info.Sent = pos
	se.mu.Unlock()
}

func (se *session) setAcked(pos wal.Position) {
	se.mu.Lock()
	se.info.Acked = pos
	se.mu.Unlock()
}

// Shipper streams a durable repository's WAL to follower replicas.
// Create one with NewShipper, feed it connections via Serve (an accept
// loop) or HandleConn (one connection, synchronously), and Close it to
// tear every session down. A Shipper holds no lock while streaming:
// it reads segment files directly (wal.TailReader), pins the segments
// it still needs against checkpoint retirement, and wakes on commit
// notifications — leader commit latency is unaffected by slow or
// disconnected followers.
type Shipper struct {
	d    *repo.DurableRepository
	opts ShipperOptions

	mu        sync.Mutex
	sessions  map[*session]struct{} // guarded by mu
	listeners []net.Listener        // guarded by mu
	closed    bool                  // guarded by mu
	stop      chan struct{}
	wg        sync.WaitGroup
}

// NewShipper returns a Shipper serving d's log. The repository must
// stay open for the Shipper's lifetime.
func NewShipper(d *repo.DurableRepository, opts ShipperOptions) *Shipper {
	return &Shipper{d: d, opts: opts, sessions: make(map[*session]struct{}), stop: make(chan struct{})}
}

func (s *Shipper) heartbeat() time.Duration {
	if s.opts.Heartbeat > 0 {
		return s.opts.Heartbeat
	}
	return DefaultHeartbeat
}

// Serve accepts connections from ln and serves each as a follower
// session on its own goroutine until Close (which also closes ln) or
// a listener error. The listener's error is returned (net.ErrClosed
// after Close).
func (s *Shipper) Serve(ln net.Listener) error {
	if err := s.addListener(ln); err != nil {
		ln.Close()
		return err
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.HandleConn(conn)
		}()
	}
}

// HandleConn serves one follower session on conn, synchronously: it
// returns when the connection fails, the follower goes away, or the
// Shipper closes. The connection is always closed on return.
func (s *Shipper) HandleConn(conn net.Conn) error {
	se := &session{conn: conn}
	if err := s.addSession(se); err != nil {
		conn.Close()
		return err
	}
	defer func() {
		conn.Close()
		s.dropSession(se)
	}()
	return s.serve(se)
}

// addListener registers a listener for Close to tear down.
func (s *Shipper) addListener(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShipperClosed
	}
	s.listeners = append(s.listeners, ln)
	return nil
}

// addSession registers a session for Sessions and Close.
func (s *Shipper) addSession(se *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShipperClosed
	}
	s.sessions[se] = struct{}{}
	return nil
}

// dropSession unregisters a finished session.
func (s *Shipper) dropSession(se *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, se)
}

// Sessions snapshots the live sessions' bookkeeping, for operators
// triaging follower staleness (docs/OPERATIONS.md §10).
func (s *Shipper) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for se := range s.sessions {
		se.mu.Lock()
		out = append(out, se.info)
		se.mu.Unlock()
	}
	return out
}

// Close tears down every session and listener and waits for Serve's
// session goroutines. The underlying repository is not touched.
func (s *Shipper) Close() error {
	if s.beginClose() {
		s.wg.Wait()
	}
	return nil
}

// beginClose marks the shipper closed and severs every listener and
// session connection; false means Close already ran.
func (s *Shipper) beginClose() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	close(s.stop)
	for _, ln := range s.listeners {
		_ = ln.Close()
	}
	for se := range s.sessions {
		_ = se.conn.Close()
	}
	return true
}

// serve runs one session: handshake, catch-up decision, optional
// bootstrap, then the tail loop.
func (s *Shipper) serve(se *session) error {
	fr := &frameReader{r: bufio.NewReader(se.conn)}
	typ, body, err := fr.next()
	if err != nil {
		return err
	}
	if typ != MsgHello {
		return fmt.Errorf("%w: first message is type %d", ErrHandshake, typ)
	}
	pos, err := parseHello(body)
	if err != nil {
		return err
	}

	// Wake-up channel first, pin second: a commit that lands between
	// the two is caught by the channel, and the pin freezes retirement
	// from here on.
	notify := make(chan struct{}, 1)
	s.d.CommitNotify(notify)
	defer s.d.StopCommitNotify(notify)
	pin, first, err := s.d.PinSegments()
	if err != nil {
		return err
	}
	defer pin.Release()
	end, ok := s.d.EndPosition()
	if !ok {
		return repo.ErrClosed
	}

	fw := &frameWriter{w: se.conn}
	start := pos
	// Bootstrap whenever the follower cannot resume: it has no state,
	// its position precedes the retained segment set, or it is AHEAD of
	// the leader's end — the signature of replicating a leader that
	// crashed under wal.SyncAsync and lost an unsynced tail the
	// follower had already applied (divergence; the follower's history
	// must be discarded).
	if start.Segment == 0 || start.Segment < first || end.Less(start) {
		img, err := s.loadImage()
		if err != nil {
			return err
		}
		fw.end(appendSnapBegin(fw.begin(MsgSnapBegin), img.Manifest.Gen, img.Manifest.WALFirst, len(img.Files)))
		for _, f := range img.Files {
			fw.end(appendSnapFile(fw.begin(MsgSnapFile), f.Name, f.Data))
			if err := fw.flushFull(); err != nil {
				return err
			}
		}
		fw.end(append(fw.begin(MsgSnapEnd), img.Raw...))
		start = wal.Position{Segment: img.Manifest.WALFirst, Offset: int64(wal.HeaderSize)}
		se.mu.Lock()
		se.info.Bootstrapped = true
		se.mu.Unlock()
	}
	pin.Advance(start.Segment)
	se.setSent(start)

	tr, err := wal.OpenTail(s.d.Dir(), start)
	if err != nil {
		return err
	}
	defer tr.Close()

	// Acks arrive concurrently with the outbound stream; a read error
	// (follower gone) surfaces here and ends the session at the next
	// idle wait — or immediately, via the failed write after the
	// connection dies.
	ackErr := make(chan error, 1)
	go func() { ackErr <- s.readAcks(fr, se, pin) }()

	// Initial staleness target: the exact stream distance from the
	// session start to the current end, computed from the (sealed,
	// hence final) segment file sizes.
	var sent uint64
	if end2, ok := s.d.EndPosition(); ok {
		if d, err := statDistance(s.d.Dir(), start, end2); err == nil {
			fw.end(appendHeartbeat(fw.begin(MsgHeartbeat), end2, d))
		}
	}

	ticker := time.NewTicker(s.heartbeat())
	defer ticker.Stop()
	idle := false
	for {
		// The stream stops where the leader's log ends: the end is read
		// once a wake-up and the reader is called only below it, so a
		// caught-up session touches neither the file nor the directory.
		// This comparison is the seam for shipping no further than the
		// last synced position (ROADMAP 6(c)): only which position is
		// read would change.
		if end, ok = s.d.EndPosition(); !ok {
			return repo.ErrClosed
		}
		for tr.Pos().Less(end) {
			// Below the end every byte has landed: ErrNoRecord here is as
			// fatal to the session as any other read error.
			ev, err := tr.Next()
			if err != nil {
				return err
			}
			idle = false
			if ev.Payload == nil {
				fw.end(appendSegStart(fw.begin(MsgSegStart), ev.Pos.Segment))
				sent += uint64(wal.HeaderSize)
			} else {
				fw.end(appendRecord(fw.begin(MsgRecord), ev.Pos, ev.Payload))
				sent += uint64(wal.FrameHeaderSize) + uint64(len(ev.Payload))
			}
			se.setSent(ev.Pos)
			if err := fw.flushFull(); err != nil {
				return err
			}
		}
		// Caught up: the reader's position IS the leader end, and sent is
		// the exact stream total there — the heartbeat that lets
		// Follower.Lag reach zero deterministically. It leaves in the
		// same Write as the records before it.
		if !idle {
			idle = true
			fw.end(appendHeartbeat(fw.begin(MsgHeartbeat), tr.Pos(), sent))
		}
		if err := fw.flush(); err != nil {
			return err
		}
		select {
		case <-notify:
		case <-ticker.C:
			idle = false // re-send the staleness target
		case err := <-ackErr:
			return err
		case <-s.stop:
			return nil
		}
	}
}

// readAcks drains the follower-to-leader direction: every ack updates
// the session info and advances the segment pin, releasing shipped
// segments to checkpoint retirement.
func (s *Shipper) readAcks(fr *frameReader, se *session, pin *repo.SegmentPin) error {
	for {
		typ, body, err := fr.next()
		if err != nil {
			return err
		}
		if typ != MsgAck {
			return fmt.Errorf("%w: unexpected inbound type %d", ErrBadFrame, typ)
		}
		pos, err := parseAck(body)
		if err != nil {
			return err
		}
		se.setAcked(pos)
		pin.Advance(pos.Segment)
	}
}

// loadImage reads a consistent bootstrap image, retrying the race a
// live leader can produce: a checkpoint retiring a snapshot file
// mid-load (re-read against the new manifest).
func (s *Shipper) loadImage() (store.BootstrapImage, error) {
	var lastErr error
	for i := 0; i < bootstrapAttempts; i++ {
		img, err := store.LoadBootstrapImage(s.d.Dir())
		switch {
		case err == nil:
			return img, nil
		case os.IsNotExist(err):
			// A checkpoint raced the load and retired a file the old
			// manifest referenced; give its manifest switch a moment to
			// land, then re-read against the new manifest.
			time.Sleep(10 * time.Millisecond)
		default:
			return store.BootstrapImage{}, err
		}
		lastErr = err
	}
	return store.BootstrapImage{}, fmt.Errorf("replica: bootstrap image unstable after %d attempts: %w", bootstrapAttempts, lastErr)
}

// statDistance computes the exact stream byte distance from to — the
// sum of record frames and segment headers a session starting at from
// will ship to reach to — from the segment files' sizes. Every segment
// before to.Segment is sealed (its size is final), and to.Segment is
// clamped at to.Offset, so a concurrent appender cannot skew the
// result.
func statDistance(dir string, from, to wal.Position) (uint64, error) {
	if !from.Less(to) {
		return 0, nil
	}
	var sum int64
	for seg := from.Segment; seg <= to.Segment; seg++ {
		var size int64
		if seg == to.Segment {
			size = to.Offset
		} else {
			fi, err := os.Stat(filepath.Join(dir, wal.SegmentName(seg)))
			if err != nil {
				return 0, err
			}
			size = fi.Size()
		}
		if seg == from.Segment {
			size -= from.Offset
		}
		sum += size
	}
	return uint64(sum), nil
}
