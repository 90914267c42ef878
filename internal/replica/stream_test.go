package replica

// What the stream itself costs: allocations per frame (none, once a
// session's buffers exist), Writes per batch (one), and nothing at all
// while a session is idle — without the end-bound that buys the last
// hiding a rotation. The codec's fuzz target is here too.

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xmldyn/internal/repo"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// TestFramesAllocateNothing: a record with the heartbeat that follows
// it, and the ack that answers them, go through frameWriter and
// frameReader without an allocation once the session's buffers are
// warm — no body temporary, no header array escaping through the Read.
func TestFramesAllocateNothing(t *testing.T) {
	var down, up bytes.Buffer // leader → follower, follower → leader
	leaderW, followerR := &frameWriter{w: &down}, newFrameReader(&down)
	followerW, leaderR := &frameWriter{w: &up}, newFrameReader(&up)
	pos := wal.Position{Segment: 3, Offset: 917}
	payload := bytes.Repeat([]byte("p"), 300)
	allocs := testing.AllocsPerRun(200, func() {
		leaderW.end(appendRecord(leaderW.begin(MsgRecord), pos, payload))
		leaderW.end(appendHeartbeat(leaderW.begin(MsgHeartbeat), pos, 12345))
		if err := leaderW.flush(); err != nil {
			t.Fatal(err)
		}
		typ, body, err := followerR.next()
		if after, got, perr := parseRecord(body); err != nil || perr != nil || typ != MsgRecord || after != pos || !bytes.Equal(got, payload) {
			t.Fatalf("record: type %d, %v, %v", typ, err, perr)
		}
		typ, body, err = followerR.next()
		if end, total, perr := parseHeartbeat(body); err != nil || perr != nil || typ != MsgHeartbeat || end != pos || total != 12345 {
			t.Fatalf("heartbeat: type %d, %v, %v", typ, err, perr)
		}
		followerW.end(appendAck(followerW.begin(MsgAck), pos))
		if err := followerW.flush(); err != nil {
			t.Fatal(err)
		}
		typ, body, err = leaderR.next()
		if acked, perr := parseAck(body); err != nil || perr != nil || typ != MsgAck || acked != pos {
			t.Fatalf("ack: type %d, %v, %v", typ, err, perr)
		}
	})
	if allocs != 0 {
		t.Errorf("a record, its heartbeat and their ack allocate %.1f times, want 0", allocs)
	}
}

// TestFrameBuffersLetOversizedFramesGo: a frame past frameBytes is read
// and written, and neither end keeps the buffer it needed once the
// frame is done (a bootstrap's largest doc-snap is not pinned for the
// session).
func TestFrameBuffersLetOversizedFramesGo(t *testing.T) {
	var buf bytes.Buffer
	fw, fr := &frameWriter{w: &buf}, newFrameReader(&buf)
	big := bytes.Repeat([]byte("s"), 5*frameBytes+17)
	if err := fw.send(MsgSnapFile, big); err != nil {
		t.Fatal(err)
	}
	if cap(fw.buf) > 2*frameBytes {
		t.Errorf("the writer keeps %d bytes after a %d-byte frame left", cap(fw.buf), len(big))
	}
	if err := fw.send(MsgSegStart, appendSegStart(nil, 4)); err != nil {
		t.Fatal(err)
	}
	if typ, body, err := fr.next(); err != nil || typ != MsgSnapFile || !bytes.Equal(body, big) {
		t.Fatalf("oversized frame: type %d, %d bytes, %v", typ, len(body), err)
	}
	if typ, body, err := fr.next(); err != nil || typ != MsgSegStart || len(body) != 8 {
		t.Fatalf("frame after it: type %d, %d bytes, %v", typ, len(body), err)
	}
	if cap(fr.body) > frameBytes {
		t.Errorf("the reader keeps %d bytes after a %d-byte frame was consumed", cap(fr.body), len(big))
	}
}

// countingConn records every Read and Write made on a connection: each
// is a syscall on a real socket.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	reads  int
	writes [][]byte
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// counts returns the Reads begun and the Writes made so far.
func (c *countingConn) counts() (reads int, writes [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads, c.writes[:len(c.writes):len(c.writes)]
}

// frameTypes splits one Write's bytes into the frames it holds.
func frameTypes(t *testing.T, p []byte) []byte {
	t.Helper()
	var types []byte
	fr := newFrameReader(bytes.NewReader(p))
	for {
		typ, _, err := fr.next()
		if err == io.EOF {
			return types
		}
		if err != nil {
			t.Fatalf("a Write does not hold whole frames: %v after %v", err, types)
		}
		types = append(types, typ)
	}
}

// countedSession serves one session to a fresh follower over a pipe
// whose leader end is counted. The shipper's idle heartbeat is an hour
// away: every Write the test sees was caused by the log.
func countedSession(t *testing.T, leader *repo.DurableRepository) (*countingConn, *Shipper, *Follower) {
	t.Helper()
	shipper := NewShipper(leader, ShipperOptions{Heartbeat: time.Hour})
	f, err := OpenFollower(t.TempDir(), FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	conn := &countingConn{Conn: server}
	done := make(chan struct{}, 2)
	go func() { shipper.HandleConn(conn); done <- struct{}{} }()
	go func() { f.RunOnce(client); done <- struct{}{} }()
	t.Cleanup(func() {
		shipper.Close()
		f.Close()
		<-done
		<-done
	})
	return conn, shipper, f
}

// TestBackfillLeavesInBatches: a backfill of 1 000 records leaves the
// leader in Writes of about frameBytes — not one a frame (at most an
// eighth as many Writes as records, bootstrap included) and not one for
// the whole log either.
func TestBackfillLeavesInBatches(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := repo.OpenDurable(leaderDir, repo.DurableOptions{Sync: wal.SyncAsync, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 0)
	const records = 1000
	note := strings.Repeat("n", 200)
	for i := 0; i < records; i++ {
		if _, err := leader.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
			b.SetAttr(doc.Root(), "note", note)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	conn, _, f := countedSession(t, leader)
	waitUntil(t, 10*time.Second, "backfill", func() bool { return caughtUp(leader, f) })
	_, writes := conn.counts()
	if len(writes) < 3 || len(writes) > records/8 {
		t.Errorf("%d records of over %d bytes left in %d Writes, want a few (at most %d)", records, len(note), len(writes), records/8)
	}
	shipped := 0
	for i, w := range writes {
		if len(w) >= 2*frameBytes {
			t.Errorf("Write %d is %d bytes: the queue is flushed at %d", i, len(w), frameBytes)
		}
		for _, typ := range frameTypes(t, w) {
			if typ == MsgRecord {
				shipped++
			}
		}
	}
	if shipped < records {
		t.Fatalf("the Writes hold %d records, the log at least %d", shipped, records)
	}
	if got, want := stateXML(t, f), stateXML(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state diverged:\n got %v\nwant %v", got, want)
	}
	assertSegmentsIdentical(t, leaderDir, f.Repo().Dir())
}

// TestLiveCommitLeavesInOneWrite: on a caught-up session one commit is
// exactly one Write on the leader's side, holding the record and the
// heartbeat that lets Lag reach zero; and while nothing commits the
// session makes neither a Write nor a fresh Read — its ack reader sits
// in the one Read it began, its tail reader is not called.
func TestLiveCommitLeavesInOneWrite(t *testing.T) {
	leader, err := repo.OpenDurable(t.TempDir(), repo.DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 5)
	conn, _, f := countedSession(t, leader)
	waitUntil(t, 5*time.Second, "catch-up", func() bool { return caughtUp(leader, f) })

	// Let the follower's last ack arrive, then watch an idle stretch.
	idle := func() (int, int) {
		t.Helper()
		var reads int
		var writes [][]byte
		waitUntil(t, 5*time.Second, "the connection to fall silent", func() bool {
			r0, w0 := conn.counts()
			time.Sleep(30 * time.Millisecond)
			reads, writes = conn.counts()
			return reads == r0 && len(writes) == len(w0)
		})
		return reads, len(writes)
	}
	reads, writes := idle()

	for i := 0; i < 3; i++ {
		if _, err := leader.Batch("books", func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), "live")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 5*time.Second, "live catch-up", func() bool { return caughtUp(leader, f) })
		_, all := conn.counts()
		if len(all) != writes+1 {
			t.Fatalf("commit %d left in %d Writes, want exactly 1", i, len(all)-writes)
		}
		if got := frameTypes(t, all[writes]); !bytes.Equal(got, []byte{MsgRecord, MsgHeartbeat}) {
			t.Fatalf("commit %d: the Write holds frame types %v, want a record and its heartbeat", i, got)
		}
		// The ack that answers the heartbeat is the one Read that
		// completes; the reader then begins the next and stays in it.
		r, w := idle()
		if w != writes+1 || r > reads+2 {
			t.Fatalf("commit %d: %d Writes and %d Reads on the leader's side, want 1 and at most 2", i, w-writes, r-reads)
		}
		reads, writes = r, w
	}
}

// TestIdleSessionHandsOffWhenLeaderRotates: the shipper stops at the
// leader's end position, and that bound must not hide a rotation. A
// session idle at the exact end of a segment — with no commit to
// follow and the ticker an hour away — hands off when a checkpoint
// cuts a fresh segment, and the follower's position reaches the new
// end.
func TestIdleSessionHandsOffWhenLeaderRotates(t *testing.T) {
	leader, err := repo.OpenDurable(t.TempDir(), repo.DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 4)
	conn, shipper, f := countedSession(t, leader)
	waitUntil(t, 5*time.Second, "catch-up", func() bool { return caughtUp(leader, f) })
	before, _ := leader.EndPosition()
	_, sofar := conn.counts()

	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	end, _ := leader.EndPosition()
	if want := (wal.Position{Segment: before.Segment + 1, Offset: int64(wal.HeaderSize)}); end != want {
		t.Fatalf("after the cut the leader ends at %v, want %v", end, want)
	}
	waitUntil(t, 5*time.Second, "hand-off", func() bool { return caughtUp(leader, f) })
	if got := f.Position(); got != end {
		t.Fatalf("follower at %v, leader end %v", got, end)
	}
	if s := shipper.Sessions(); len(s) != 1 || s[0].Sent != end {
		t.Fatalf("session bookkeeping %+v, want Sent at %v", s, end)
	}
	_, all := conn.counts()
	if len(all) != len(sofar)+1 || !bytes.Equal(frameTypes(t, all[len(sofar)]), []byte{MsgSegStart, MsgHeartbeat}) {
		t.Fatalf("the hand-off left in %d Writes, want one holding the boundary and its heartbeat", len(all)-len(sofar))
	}
}

// FuzzWireFrames fuzzes the network-facing codec from both sides.
// Arbitrary bytes through frameReader.next and every parser never
// panic and never cost more allocation than a constant and the input —
// a length field is believed only as far as bytes arrive. And the
// (type, body) sequence the same input spells (a type byte, a length
// byte, that many body bytes, repeated) comes back from frameWriter →
// frameReader as it went in, whether the frames are queued and leave
// together or are flushed one by one.
func FuzzWireFrames(f *testing.F) {
	// The corpus is testdata/fuzz/FuzzWireFrames; this seed is one frame
	// whose length field lies: the wire CRC covers the body only, so one
	// flipped bit there must cost a short read, not a buffer of most of
	// MaxMessageSize.
	f.Add([]byte{MsgRecord, 0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0, 1, 2, 3}, true)
	f.Fuzz(func(t *testing.T, data []byte, queued bool) {
		parseAll := func(body []byte) {
			parseHello(body)
			parseSnapBegin(body)
			parseSnapFile(body)
			parseSegStart(body)
			parseRecord(body)
			parseHeartbeat(body)
			parseAck(body)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := newFrameReader(bytes.NewReader(data))
		for {
			_, body, err := fr.next()
			if err != nil {
				break
			}
			parseAll(body)
		}
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*frameBytes+8*len(data)); grew > limit {
			t.Fatalf("%d input bytes cost %d bytes of allocation, limit %d", len(data), grew, limit)
		}

		type message struct {
			typ  byte
			body []byte
		}
		var msgs []message
		for rest := data; len(rest) >= 2; {
			n := min(int(rest[1]), len(rest)-2)
			msgs = append(msgs, message{rest[0], rest[2 : 2+n]})
			rest = rest[2+n:]
		}
		var wire bytes.Buffer
		fw := &frameWriter{w: &wire}
		for _, m := range msgs {
			fw.end(append(fw.begin(m.typ), m.body...))
			if !queued {
				if err := fw.flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := fw.flush(); err != nil {
			t.Fatal(err)
		}
		fr = newFrameReader(&wire)
		for i, m := range msgs {
			typ, body, err := fr.next()
			if err != nil || typ != m.typ || !bytes.Equal(body, m.body) {
				t.Fatalf("frame %d of %d: got type %d body %x (%v), want type %d body %x", i, len(msgs), typ, body, err, m.typ, m.body)
			}
			parseAll(body)
		}
		if _, _, err := fr.next(); err != io.EOF {
			t.Fatalf("after %d frames: %v, want EOF", len(msgs), err)
		}
	})
}
