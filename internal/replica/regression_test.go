package replica

// Regression tests for the two stream-integrity rejections: a
// non-contiguous segment stream (wal.ErrMissingSegment over the wire)
// and a mid-stream CRC flip — and for the requirement that both are
// RECONNECT faults: the follower resumes from its last durable offset
// on the next session, with no wipe and no re-bootstrap. A divergence
// reconnects too, but its next session bootstraps, in place.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"xmldyn/internal/repo"
	"xmldyn/internal/wal"
)

// TestNonContiguousStreamRejectedOverWire drives RunOnce against a
// fake leader that skips a segment boundary: the session must fail
// with wal.ErrMissingSegment, and a genuine session afterwards must
// resume from the follower's durable position.
func TestNonContiguousStreamRejectedOverWire(t *testing.T) {
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

	f, err := OpenFollower(t.TempDir(), FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Session 1: genuine catch-up, driven synchronously via RunOnce.
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	sessionDone := make(chan error, 1)
	go func() { sessionDone <- f.RunOnce(conn) }()
	waitUntil(t, 5*time.Second, "initial catch-up", func() bool { return caughtUp(leader, f) })
	conn.Close()
	<-sessionDone
	resumePos := f.Position()

	// Session 2: a fake leader answers the hello with a segment
	// boundary two past the follower's active segment.
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		fr := newFrameReader(server)
		typ, body, err := fr.next()
		if err != nil || typ != MsgHello {
			return
		}
		pos, err := parseHello(body)
		if err != nil {
			return
		}
		fw := &frameWriter{w: server}
		_ = fw.send(MsgSegStart, appendSegStart(nil, pos.Segment+2))
	}()
	if err := f.RunOnce(client); !errors.Is(err, wal.ErrMissingSegment) {
		t.Fatalf("non-contiguous stream: RunOnce = %v, want wal.ErrMissingSegment", err)
	}

	// The rejection must not have moved or wiped anything.
	if got := f.Position(); got != resumePos {
		t.Fatalf("position moved across rejected stream: %v -> %v", resumePos, got)
	}

	// Session 3: genuine reconnect resumes from the durable offset.
	commitLeader(t, leader, 4)
	conn3, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	go func() { f.RunOnce(conn3) }()
	waitUntil(t, 5*time.Second, "post-rejection catch-up", func() bool { return caughtUp(leader, f) })
	conn3.Close()
	if got, want := stateXML(t, f), stateXML(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("state diverged after resume:\n got %v\nwant %v", got, want)
	}
	for _, s := range shipper.Sessions() {
		if s.Bootstrapped {
			t.Fatalf("resumed session re-bootstrapped: %+v", s)
		}
	}
}

// TestCRCFlipResumesWithoutRebootstrap corrupts the first record
// frame of the live tail: the follower must reject the frame
// (ErrBadFrame), reconnect, and resume from its last acked offset —
// same repository instance, no bootstrap on the second session, final
// state and segment bytes identical to the leader.
func TestCRCFlipResumesWithoutRebootstrap(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := repo.OpenDurable(leaderDir, repo.DurableOptions{SegmentBytes: 512, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 3)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitLeader(t, leader, 6)

	ln := newPipeListener()
	defer ln.Close()
	shipper := NewShipper(leader, ShipperOptions{Heartbeat: 10 * time.Millisecond})
	defer shipper.Close()
	go shipper.Serve(ln)

	// First dial goes through a proxy that flips one bit in the body
	// of the third MsgRecord frame; reconnects are clean.
	var dials atomic.Int64
	dial := func() (net.Conn, error) {
		up, err := ln.Dial()
		if err != nil {
			return nil, err
		}
		if dials.Add(1) > 1 {
			return up, nil
		}
		client, server := net.Pipe()
		go func() {
			defer func() { up.Close(); server.Close() }()
			records := 0
			for {
				raw, err := readRawFrame(up)
				if err != nil {
					return
				}
				if raw[0] == MsgRecord {
					if records++; records == 3 {
						raw[len(raw)-1] ^= 0x01
					}
				}
				if _, err := server.Write(raw); err != nil {
					return
				}
			}
		}()
		go func() {
			for {
				raw, err := readRawFrame(server)
				if err != nil {
					up.Close()
					return
				}
				if _, err := up.Write(raw); err != nil {
					server.Close()
					return
				}
			}
		}()
		return client, nil
	}

	f, err := OpenFollower(t.TempDir(), FollowerOptions{Dial: dial, ReconnectDelay: 5 * time.Millisecond, AckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Run() }()
	defer func() {
		f.Close()
		if err := <-done; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	waitUntil(t, 5*time.Second, "catch-up through CRC flip", func() bool { return caughtUp(leader, f) })

	if n := dials.Load(); n < 2 {
		t.Fatalf("corrupted frame did not force a reconnect (dials = %d)", n)
	}
	for _, s := range shipper.Sessions() {
		if s.Bootstrapped {
			t.Fatalf("resumed session re-bootstrapped: %+v", s)
		}
	}
	if got, want := stateXML(t, f), stateXML(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("state diverged:\n got %v\nwant %v", got, want)
	}
	assertSegmentsIdentical(t, leaderDir, f.Repo().Dir())
}

// TestDivergenceKeepsCachedRepoCurrent makes a follower diverge from
// its leader under Run: on the second dial a proxy misspells the
// document name of the first RecBatch record ("books" → "bookz", same
// length) and re-frames it with a valid CRC, so the follower appends a
// record its state cannot apply. The next session must bootstrap, and
// the repository handle cached before the divergence must show the
// leader's state afterwards: the bootstrap installs in place.
func TestDivergenceKeepsCachedRepoCurrent(t *testing.T) {
	leader, err := repo.OpenDurable(t.TempDir(), repo.DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	seedLeader(t, leader, 3)

	ln := newPipeListener()
	defer ln.Close()
	shipper := NewShipper(leader, ShipperOptions{Heartbeat: 10 * time.Millisecond})
	defer shipper.Close()
	go shipper.Serve(ln)

	var dials atomic.Int64
	var misspelled atomic.Bool
	dial := func() (net.Conn, error) {
		up, err := ln.Dial()
		if err != nil {
			return nil, err
		}
		if dials.Add(1) != 2 {
			return up, nil
		}
		client, server := net.Pipe()
		go func() {
			defer func() { up.Close(); server.Close() }()
			for {
				raw, err := readRawFrame(up)
				if err != nil {
					return
				}
				// A MsgRecord body is the end position (16 bytes), then
				// the payload: RecBatch, the name's length, the name.
				if body := raw[FrameHeaderSize:]; raw[0] == MsgRecord && !misspelled.Load() &&
					body[16] == repo.RecBatch && bytes.HasPrefix(body[17:], []byte("\x05books")) {
					body[22] = 'z'
					binary.LittleEndian.PutUint32(raw[5:9], crc32.ChecksumIEEE(body))
					misspelled.Store(true)
				}
				if _, err := server.Write(raw); err != nil {
					return
				}
			}
		}()
		go func() {
			for {
				raw, err := readRawFrame(server)
				if err != nil {
					up.Close()
					return
				}
				if _, err := up.Write(raw); err != nil {
					server.Close()
					return
				}
			}
		}()
		return client, nil
	}

	f, err := OpenFollower(t.TempDir(), FollowerOptions{Dial: dial, ReconnectDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Run() }()
	defer func() {
		f.Close()
		if err := <-done; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	waitUntil(t, 5*time.Second, "initial catch-up", func() bool { return caughtUp(leader, f) })
	cached := f.Repo()

	// Sever the clean session; the second dial carries the misspelling.
	shipper.severSessions()
	commitLeader(t, leader, 2)
	waitUntil(t, 5*time.Second, "the misspelled record", misspelled.Load)
	waitUntil(t, 5*time.Second, "catch-up after the divergence", func() bool { return caughtUp(leader, f) })

	if n := dials.Load(); n < 3 {
		t.Fatalf("divergence did not force a reconnect (dials = %d)", n)
	}
	bootstrapped := false
	for _, s := range shipper.Sessions() {
		bootstrapped = bootstrapped || s.Bootstrapped
	}
	if !bootstrapped {
		t.Fatalf("the session after the divergence resumed; want a bootstrap: %+v", shipper.Sessions())
	}
	if got, want := stateXML(t, cached), stateXML(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached repository is stale after the divergence:\n got %v\nwant %v", got, want)
	}
}
