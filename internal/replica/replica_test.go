package replica

// End-to-end replication tests: a live leader, a Shipper, and a
// Follower joined by in-memory pipes. They prove the catch-up
// protocol (bootstrap → backfill → tail), the deterministic staleness
// bound (Lag reaching exactly 0), byte-identical follower segment
// files, and the resume path after disconnects.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"xmldyn/internal/repo"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// pipeListener is an in-memory net.Listener fed by Dial, so the whole
// leader/follower stack runs deterministically in-process.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// Dial returns the client half of a fresh pipe, handing the server
// half to Accept.
func (l *pipeListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func mustParse(t *testing.T, text string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// seedLeader opens two documents and commits n batches against each.
func seedLeader(t *testing.T, d *repo.DurableRepository, n int) {
	t.Helper()
	if err := d.Open("books", mustParse(t, `<lib><book id="b0"><title>Zero</title></book></lib>`), "qed"); err != nil {
		t.Fatal(err)
	}
	if err := d.Open("feeds", mustParse(t, `<feeds><f/></feeds>`), "deweyid"); err != nil {
		t.Fatal(err)
	}
	commitLeader(t, d, n)
}

// commitLeader commits n more batches against the seeded documents.
func commitLeader(t *testing.T, d *repo.DurableRepository, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := d.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
			root := doc.Root()
			nb := b.AppendChild(root, fmt.Sprintf("book%d", i))
			nb.SetAttr(root, "count", fmt.Sprintf("%d", i+1))
			return nil
		})
		if err != nil {
			t.Fatalf("books batch %d: %v", i, err)
		}
		_, err = d.Batch("feeds", func(doc *xmltree.Document, b *update.Batch) error {
			f := doc.Root().Children()[0]
			b.InsertAfter(f, fmt.Sprintf("e%d", i))
			b.SetText(f, fmt.Sprintf("tick %d", i))
			return nil
		})
		if err != nil {
			t.Fatalf("feeds batch %d: %v", i, err)
		}
	}
}

// stateXML captures every document's serialised tree via a snapshot.
type snapshotter interface {
	Snapshot(names ...string) (*repo.Snapshot, error)
}

func stateXML(t *testing.T, s snapshotter) map[string]string {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	out := map[string]string{}
	for _, name := range snap.Names() {
		doc, err := snap.Document(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = doc.XML()
	}
	return out
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports whether f has applied everything the leader d has
// committed: positions equal and the byte-accounted lag is zero.
func caughtUp(d *repo.DurableRepository, f *Follower) bool {
	end, ok := d.EndPosition()
	if !ok {
		return false
	}
	return f.Position() == end && f.Lag() == 0
}

// harness wires a leader, a Shipper, and a Follower together over an
// in-memory listener, with the follower's Run loop started.
type harness struct {
	leader   *repo.DurableRepository
	shipper  *Shipper
	follower *Follower
	ln       *pipeListener
	runDone  chan error
}

func newHarness(t *testing.T, leader *repo.DurableRepository, fopts FollowerOptions) *harness {
	t.Helper()
	h := &harness{leader: leader, ln: newPipeListener(), runDone: make(chan error, 1)}
	h.shipper = NewShipper(leader, ShipperOptions{Heartbeat: 10 * time.Millisecond})
	go h.shipper.Serve(h.ln)
	fopts.Dial = h.ln.Dial
	if fopts.ReconnectDelay == 0 {
		fopts.ReconnectDelay = 5 * time.Millisecond
	}
	f, err := OpenFollower(t.TempDir(), fopts)
	if err != nil {
		t.Fatal(err)
	}
	h.follower = f
	go func() { h.runDone <- f.Run() }()
	t.Cleanup(func() {
		h.shipper.Close()
		h.ln.Close()
		f.Close()
		select {
		case err := <-h.runDone:
			if err != nil {
				t.Errorf("follower Run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("follower Run did not stop")
		}
	})
	return h
}

// assertSegmentsIdentical byte-compares the follower's segment files
// against the leader's, over the follower's full retained range.
func assertSegmentsIdentical(t *testing.T, leaderDir, followerDir string) {
	t.Helper()
	entries, err := os.ReadDir(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if _, ok := wal.ParseSegmentName(e.Name()); !ok {
			continue
		}
		segs++
		got, err := os.ReadFile(filepath.Join(followerDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(leaderDir, e.Name()))
		if err != nil {
			t.Fatalf("follower has %s but leader does not: %v", e.Name(), err)
		}
		if len(want) < len(got) || !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("%s diverges: follower %d bytes, leader %d bytes", e.Name(), len(got), len(want))
		}
	}
	if segs == 0 {
		t.Fatal("follower retains no segment files")
	}
}

// TestFreshFollowerCatchesUp is the headline test: a fresh follower
// bootstraps from the leader's checkpoint, backfills sealed segments,
// tails the live records across rotations, and converges to Lag 0
// with byte-identical segment files and identical document trees.
func TestFreshFollowerCatchesUp(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := repo.OpenDurable(leaderDir, repo.DurableOptions{SegmentBytes: 512, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 10)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitLeader(t, leader, 10)

	h := newHarness(t, leader, FollowerOptions{})
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool { return caughtUp(leader, h.follower) })

	if got, want := stateXML(t, h.follower), stateXML(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state diverged:\n got %v\nwant %v", got, want)
	}
	assertSegmentsIdentical(t, leaderDir, h.follower.Repo().Dir())
	for _, name := range h.follower.Repo().Names() {
		if err := h.follower.Repo().Verify(name); err != nil {
			t.Fatalf("verify %q: %v", name, err)
		}
	}

	// Live tail: new commits replicate without a new session.
	commitLeader(t, leader, 5)
	waitUntil(t, 5*time.Second, "live tail catch-up", func() bool { return caughtUp(leader, h.follower) })
	if got, want := stateXML(t, h.follower), stateXML(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("live tail diverged:\n got %v\nwant %v", got, want)
	}

	sessions := h.shipper.Sessions()
	if len(sessions) != 1 || !sessions[0].Bootstrapped {
		t.Fatalf("expected one bootstrapped session, got %+v", sessions)
	}
}

// TestLagReachesZeroDeterministically pins the staleness-bound
// contract: once the leader is idle and the stream is drained, Lag is
// exactly 0 — not approximately, and not only eventually — and it
// returns to 0 after every further burst.
func TestLagReachesZeroDeterministically(t *testing.T) {
	leader, err := repo.OpenDurable(t.TempDir(), repo.DurableOptions{SegmentBytes: 256, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 3)

	h := newHarness(t, leader, FollowerOptions{})
	for round := 0; round < 4; round++ {
		waitUntil(t, 5*time.Second, fmt.Sprintf("round %d catch-up", round), func() bool { return caughtUp(leader, h.follower) })
		if lag := h.follower.Lag(); lag != 0 {
			t.Fatalf("round %d: Lag = %d after catch-up, want exactly 0", round, lag)
		}
		end, _ := leader.EndPosition()
		if got := h.follower.Position(); got != end {
			t.Fatalf("round %d: follower at %v, leader end %v", round, got, end)
		}
		commitLeader(t, leader, 4)
		// The burst must be observable as non-zero lag or an advanced
		// position; either way the next wait proves re-convergence.
	}
}

// TestFollowerResumesAfterDisconnect kills the transport mid-stream
// and proves the follower resumes from its durable position on a new
// session — no re-bootstrap, no lost or duplicated records.
func TestFollowerResumesAfterDisconnect(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := repo.OpenDurable(leaderDir, repo.DurableOptions{SegmentBytes: 512, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 8)

	h := newHarness(t, leader, FollowerOptions{})
	waitUntil(t, 5*time.Second, "initial catch-up", func() bool { return caughtUp(leader, h.follower) })

	// Sever every live session at the transport; Run reconnects.
	h.shipper.severSessions()
	commitLeader(t, leader, 8)
	waitUntil(t, 5*time.Second, "post-disconnect catch-up", func() bool { return caughtUp(leader, h.follower) })

	if got, want := stateXML(t, h.follower), stateXML(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("state diverged after resume:\n got %v\nwant %v", got, want)
	}
	assertSegmentsIdentical(t, leaderDir, h.follower.Repo().Dir())
	// The resumed session must NOT have bootstrapped.
	for _, s := range h.shipper.Sessions() {
		if s.Bootstrapped {
			t.Fatalf("resumed session re-bootstrapped: %+v", s)
		}
	}
}

// TestFollowerRestartResumes closes the follower entirely, reopens the
// same directory, and proves the new instance resumes from its durable
// position without a bootstrap.
func TestFollowerRestartResumes(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := repo.OpenDurable(leaderDir, repo.DurableOptions{SegmentBytes: 512, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 6)

	ln := newPipeListener()
	defer ln.Close()
	shipper := NewShipper(leader, ShipperOptions{Heartbeat: 10 * time.Millisecond})
	defer shipper.Close()
	go shipper.Serve(ln)

	fdir := t.TempDir()
	f1, err := OpenFollower(fdir, FollowerOptions{Dial: ln.Dial, ReconnectDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- f1.Run() }()
	waitUntil(t, 5*time.Second, "first instance catch-up", func() bool { return caughtUp(leader, f1) })
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done1; err != nil {
		t.Fatalf("first Run: %v", err)
	}

	commitLeader(t, leader, 6)
	f2, err := OpenFollower(fdir, FollowerOptions{Dial: ln.Dial, ReconnectDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- f2.Run() }()
	defer func() {
		f2.Close()
		if err := <-done2; err != nil {
			t.Errorf("second Run: %v", err)
		}
	}()
	waitUntil(t, 5*time.Second, "restarted instance catch-up", func() bool { return caughtUp(leader, f2) })
	if got, want := stateXML(t, f2), stateXML(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart diverged:\n got %v\nwant %v", got, want)
	}
	for _, s := range shipper.Sessions() {
		if s.Bootstrapped {
			t.Fatalf("restarted session re-bootstrapped: %+v", s)
		}
	}
	assertSegmentsIdentical(t, leaderDir, fdir)
}

// TestCheckpointUnderPinKeepsBackfill checkpoints the leader while a
// follower session is pinned mid-backfill: the pin must keep the
// not-yet-shipped segments alive, and the follower still converges.
func TestCheckpointUnderPinKeepsBackfill(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := repo.OpenDurable(leaderDir, repo.DurableOptions{SegmentBytes: 256, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 12)

	h := newHarness(t, leader, FollowerOptions{})
	// Checkpoints concurrent with the session: retirement must never
	// delete a segment the session still needs.
	for i := 0; i < 3; i++ {
		commitLeader(t, leader, 3)
		if err := leader.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, "catch-up across checkpoints", func() bool { return caughtUp(leader, h.follower) })
	if got, want := stateXML(t, h.follower), stateXML(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("state diverged:\n got %v\nwant %v", got, want)
	}
}

// TestDivergedFollowerRebootstraps simulates an async-policy leader
// crash that lost a tail the follower had already applied: the
// follower reports a position past the leader's end, and the session
// must force a fresh bootstrap instead of resuming.
func TestDivergedFollowerRebootstraps(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := repo.OpenDurable(leaderDir, repo.DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 2)

	// A follower whose hello position is far past the leader's end.
	ln := newPipeListener()
	defer ln.Close()
	shipper := NewShipper(leader, ShipperOptions{Heartbeat: 10 * time.Millisecond})
	defer shipper.Close()
	go shipper.Serve(ln)

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := &frameWriter{w: conn}
	end, _ := leader.EndPosition()
	ahead := wal.Position{Segment: end.Segment, Offset: end.Offset + 1024}
	if err := fw.send(MsgHello, appendHello(nil, ahead)); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(conn)
	typ, _, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgSnapBegin {
		t.Fatalf("leader answered ahead-of-end hello with type %d, want MsgSnapBegin (forced bootstrap)", typ)
	}
}

// TestHandshakeRejectsGarbage pins the handshake errors: wrong magic
// and a non-hello first message both fail the session with
// ErrHandshake.
func TestHandshakeRejectsGarbage(t *testing.T) {
	leader, err := repo.OpenDurable(t.TempDir(), repo.DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	shipper := NewShipper(leader, ShipperOptions{})
	defer shipper.Close()

	check := func(name string, typ byte, body []byte) {
		client, server := net.Pipe()
		defer client.Close()
		errCh := make(chan error, 1)
		go func() { errCh <- shipper.HandleConn(server) }()
		fw := &frameWriter{w: client}
		if err := fw.send(typ, body); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := <-errCh; !errors.Is(err, ErrHandshake) {
			t.Fatalf("%s: session error = %v, want ErrHandshake", name, err)
		}
	}
	check("bad magic", MsgHello, append([]byte("NOPE"), make([]byte, 17)...))
	check("wrong first type", MsgAck, appendAck(nil, wal.Position{Segment: 1, Offset: 5}))
}

// severSessions severs the live session connections without closing
// the shipper (test-only: simulates a network partition).
func (s *Shipper) severSessions() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for se := range s.sessions {
		_ = se.conn.Close()
	}
}
