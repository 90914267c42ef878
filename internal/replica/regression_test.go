package replica

// Regression tests for the two stream-integrity rejections: a
// non-contiguous segment stream (wal.ErrMissingSegment over the wire)
// and a mid-stream CRC flip — and for the requirement that both are
// RECONNECT faults: the follower resumes from its last durable offset
// on the next session, with no wipe and no re-bootstrap.

import (
	"errors"
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
	repoBefore := f.Repo()

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
	if f.Repo() != repoBefore {
		t.Fatal("rejected stream triggered a re-bootstrap")
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
	repoBefore := f.Repo()
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
	if f.Repo() != repoBefore {
		t.Fatal("CRC flip triggered a re-bootstrap; want resume")
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
