package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestTornWriteReplaysToLastWholeFrame: a write that lands part of a
// frame and fails — out of space, or short — fails its append and poisons
// the log, so later appends return the same error. Replay reports the
// tail torn at the last whole frame, OpenAt truncates there, and a new
// append replays after the old records.
func TestTornWriteReplaysToLastWholeFrame(t *testing.T) {
	for _, c := range []struct {
		name string
		k    int // bytes of the frame that land
		err  error
	}{
		{"ENOSPC in the frame header", 3, syscall.ENOSPC},
		{"short write in the payload", FrameHeaderSize + 2, io.ErrShortWrite},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			l := createLog(t, dir, Options{})
			s := script(t, l, 0)
			whole := []string{"one", "two", "three"}
			valid := int64(HeaderSize)
			for _, rec := range whole {
				if err := l.Append([]byte(rec)); err != nil {
					t.Fatal(err)
				}
				valid += int64(FrameHeaderSize + len(rec))
			}
			s.tear(c.k, c.err)
			if err := l.Append([]byte("torn record")); !errors.Is(err, c.err) {
				t.Fatalf("torn append returned %v, want %v", err, c.err)
			}
			if err := l.Append([]byte("later")); !errors.Is(err, c.err) {
				t.Fatalf("append after the torn write returned %v, want %v", err, c.err)
			}
			l.Close()
			got, info := replayAll(t, dir, 1)
			if !info.Torn || info.ValidSize != valid || len(got) != len(whole) {
				t.Fatalf("replay: torn %v, valid size %d, %d records; want torn, %d, %d",
					info.Torn, info.ValidSize, len(got), valid, len(whole))
			}
			l2, err := OpenAt(dir, info, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l2.Append([]byte("after recovery")); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got, info = replayAll(t, dir, 1)
			if info.Torn || len(got) != len(whole)+1 || string(got[len(whole)]) != "after recovery" {
				t.Fatalf("after OpenAt: torn %v, records %q", info.Torn, got)
			}
		})
	}
}

// TestFailedFsyncOfSealedSegmentIsMoot: the flusher's fsync of segment 1
// is held while Rotate seals it, and the seal's own fsync returns every
// parked append nil. The held fsync then fails, but the segment it was
// for is sealed and gone: the log is not poisoned, and the next append
// returns nil.
func TestFailedFsyncOfSealedSegmentIsMoot(t *testing.T) {
	const parked = 4
	dir := t.TempDir()
	l := createLog(t, dir, Options{})
	s := script(t, l, 1)
	lead := parkAppends(t, l, s, 1)
	done := parkAppends(t, l, s, parked)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i, err := range append(collect(t, lead, 1, 10*time.Second), collect(t, done, parked, 10*time.Second)...) {
		if err != nil {
			t.Errorf("append %d returned %v after the seal, want nil", i, err)
		}
	}
	s.release <- syscall.EIO
	if err := l.Append([]byte("after the moot failure")); err != nil {
		t.Fatalf("append after a sealed segment's failed fsync returned %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, info := replayAll(t, dir, 1); len(got) != parked+2 || info.Segments != 2 {
		t.Fatalf("replayed %d records over %d segments, want %d over 2", len(got), info.Segments, parked+2)
	}
}

// TestFailedRotationDoesNotPoison: when the next segment cannot be
// created (here a directory holds its name) the append that would rotate
// returns the create error, but nothing was lost and the active segment
// is intact, so the log is not poisoned: once the name is free the next
// append rotates and returns nil, and both records replay across two
// segments.
func TestFailedRotationDoesNotPoison(t *testing.T) {
	dir := t.TempDir()
	l := createLog(t, dir, Options{SegmentBytes: 16})
	if err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, SegmentName(2))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("refused")); err == nil {
		t.Fatal("append whose rotation cannot create the next segment returned nil")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("after")); err != nil {
		t.Fatalf("append after a failed rotation returned %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, info := replayAll(t, dir, 1)
	if len(got) != 2 || string(got[0]) != "before" || string(got[1]) != "after" || info.Segments != 2 {
		t.Fatalf("replayed %q over %d segments, want [before after] over 2", got, info.Segments)
	}
}

// TestCloseReturnsTheFailure: an async log's Sync fails, so the log is
// poisoned and what it holds past its last good fsync may be lost. Close
// then returns that failure, not nil, and a second Close returns
// ErrClosed.
func TestCloseReturnsTheFailure(t *testing.T) {
	l := createLog(t, t.TempDir(), Options{Policy: SyncAsync, FlushInterval: time.Hour})
	s := script(t, l, 1)
	if err := l.Append([]byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	s.release <- syscall.EIO
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync returned %v, want the scripted EIO", err)
	}
	if err := l.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close of a failed log returned %v, want its EIO", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close returned %v, want ErrClosed", err)
	}
}
