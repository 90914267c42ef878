package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmldyn/internal/wal"
)

// TestTailReaderFollowsAppends drives a TailReader behind a live log:
// records appear as they are appended, ErrNoRecord at the caught-up
// tail, positions advance frame by frame.
func TestTailReaderFollowsAppends(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Create(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	tr, err := wal.OpenTail(dir, wal.Position{Segment: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Next(); !errors.Is(err, wal.ErrNoRecord) {
		t.Fatalf("empty log: got %v, want ErrNoRecord", err)
	}

	var want [][]byte
	for i := 0; i < 5; i++ {
		p := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, p)
		if err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		ev, err := tr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(ev.Payload, w) {
			t.Fatalf("record %d: got %q, want %q", i, ev.Payload, w)
		}
		if ev.Pos.Segment != 1 {
			t.Fatalf("record %d: segment %d, want 1", i, ev.Pos.Segment)
		}
	}
	if _, err := tr.Next(); !errors.Is(err, wal.ErrNoRecord) {
		t.Fatalf("caught up: got %v, want ErrNoRecord", err)
	}
	if got, end := tr.Pos(), log.Position(); got != end {
		t.Fatalf("caught-up position %v != log end %v", got, end)
	}
}

// TestTailReaderHandsOffAtRotation proves the reader crosses segment
// boundaries with an explicit hand-off event per traversed segment and
// keeps yielding records from the successor.
func TestTailReaderHandsOffAtRotation(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Create(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	tr, err := wal.OpenTail(dir, wal.Position{Segment: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if err := log.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := log.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}

	ev, err := tr.Next()
	if err != nil || string(ev.Payload) != "before" {
		t.Fatalf("first record: %q, %v", ev.Payload, err)
	}
	ev, err = tr.Next()
	if err != nil || ev.Payload != nil {
		t.Fatalf("hand-off: payload %q, err %v; want nil payload", ev.Payload, err)
	}
	if ev.Pos != (wal.Position{Segment: 2, Offset: int64(wal.HeaderSize)}) {
		t.Fatalf("hand-off position %v", ev.Pos)
	}
	ev, err = tr.Next()
	if err != nil || string(ev.Payload) != "after" {
		t.Fatalf("post-rotation record: %q, %v", ev.Payload, err)
	}

	// A second rotation with no records yet: the hand-off is still
	// reported eagerly (consumers mirror empty segments too).
	if _, err := log.Rotate(); err != nil {
		t.Fatal(err)
	}
	ev, err = tr.Next()
	if err != nil || ev.Payload != nil || ev.Pos.Segment != 3 {
		t.Fatalf("eager hand-off: %+v, %v", ev, err)
	}
	if _, err := tr.Next(); !errors.Is(err, wal.ErrNoRecord) {
		t.Fatalf("empty successor: got %v, want ErrNoRecord", err)
	}
}

// TestTailReaderWaitsForSuccessorHeader pins the rotation-in-flight
// window: a successor segment is visible on disk before its header is
// written (creation and header write are two steps). The reader must
// treat that as "nothing yet" — ErrNoRecord, position unchanged — and
// hand off once the header lands, not fail the stream with a short
// header.
func TestTailReaderWaitsForSuccessorHeader(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Create(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append([]byte("sealed")); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := wal.OpenTail(dir, wal.Position{Segment: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if ev, err := tr.Next(); err != nil || string(ev.Payload) != "sealed" {
		t.Fatalf("first record: %q, %v", ev.Payload, err)
	}
	before := tr.Pos()

	next := filepath.Join(dir, wal.SegmentName(2))
	for _, partial := range [][]byte{nil, []byte(wal.Magic)[:2]} {
		if err := os.WriteFile(next, partial, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Next(); !errors.Is(err, wal.ErrNoRecord) {
			t.Fatalf("successor with %d header bytes: got %v, want ErrNoRecord", len(partial), err)
		}
		if got := tr.Pos(); got != before {
			t.Fatalf("position moved to %v while the successor header was in flight", got)
		}
	}
	if err := os.WriteFile(next, append([]byte(wal.Magic), wal.Version), 0o644); err != nil {
		t.Fatal(err)
	}
	ev, err := tr.Next()
	if err != nil || ev.Payload != nil || ev.Pos != (wal.Position{Segment: 2, Offset: int64(wal.HeaderSize)}) {
		t.Fatalf("hand-off after the header landed: %+v, %v", ev, err)
	}
}

// TestTailReaderMidStreamStart opens a reader at a mid-segment frame
// boundary (resume-from-position, the replication reconnect path) and
// checks it sees exactly the suffix.
func TestTailReaderMidStreamStart(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Create(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Append([]byte("skipped")); err != nil {
		t.Fatal(err)
	}
	resume := log.Position()
	if err := log.Append([]byte("wanted")); err != nil {
		t.Fatal(err)
	}
	tr, err := wal.OpenTail(dir, resume)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ev, err := tr.Next()
	if err != nil || string(ev.Payload) != "wanted" {
		t.Fatalf("resume read: %q, %v", ev.Payload, err)
	}
}

// TestTailReaderCorruption: a full frame with a flipped payload byte is
// ErrCorruptRecord, and a torn frame in a SEALED segment (successor
// exists) is ErrCorruptRecord too — live tailing tolerates no tears.
func TestTailReaderCorruption(t *testing.T) {
	t.Run("crc-flip", func(t *testing.T) {
		dir := t.TempDir()
		log, err := wal.Create(dir, 1, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append([]byte("victim")); err != nil {
			t.Fatal(err)
		}
		log.Close()
		path := filepath.Join(dir, wal.SegmentName(1))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := wal.OpenTail(dir, wal.Position{Segment: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if _, err := tr.Next(); !errors.Is(err, wal.ErrCorruptRecord) {
			t.Fatalf("got %v, want ErrCorruptRecord", err)
		}
	})
	t.Run("torn-sealed", func(t *testing.T) {
		dir := t.TempDir()
		log, err := wal.Create(dir, 1, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append([]byte("whole")); err != nil {
			t.Fatal(err)
		}
		if _, err := log.Rotate(); err != nil {
			t.Fatal(err)
		}
		log.Close()
		// Tear the sealed segment 1 mid-frame while segment 2 exists.
		path := filepath.Join(dir, wal.SegmentName(1))
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-2); err != nil {
			t.Fatal(err)
		}
		tr, err := wal.OpenTail(dir, wal.Position{Segment: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if _, err := tr.Next(); !errors.Is(err, wal.ErrCorruptRecord) {
			t.Fatalf("got %v, want ErrCorruptRecord", err)
		}
	})
}

// TestReplayGapErrorMessage pins the contiguity error's shape: a gap in
// the segment set must report the expected index AND the found one, so
// an operator sees the hole's extent, not just its left edge.
func TestReplayGapErrorMessage(t *testing.T) {
	dir := t.TempDir()
	for _, idx := range []uint64{3, 6} {
		log, err := wal.Create(dir, idx, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		log.Close()
	}
	_, err := wal.Replay(dir, 3, func([]byte) error { return nil })
	if !errors.Is(err, wal.ErrMissingSegment) {
		t.Fatalf("got %v, want ErrMissingSegment", err)
	}
	msg := err.Error()
	want := fmt.Sprintf("expected %s, found %s", wal.SegmentName(4), wal.SegmentName(6))
	if !strings.Contains(msg, want) {
		t.Fatalf("gap error %q does not report %q", msg, want)
	}
}
