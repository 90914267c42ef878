package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
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

// drain reads the tail as the shipper does — only below end — and
// returns how many records it saw.
func drain(t *testing.T, tr *wal.TailReader, end wal.Position) int {
	n := 0
	for tr.Pos().Less(end) {
		if _, err := tr.Next(); err != nil {
			t.Fatalf("record %d below the log's end %v: %v", n, end, err)
		}
		n++
	}
	return n
}

// TestTailReaderAllocatesPerSession pins the read-ahead's price: the
// window is made at OpenTail and a record out of it costs no
// allocation, up to and including the last record of the active
// segment. A reader that stops at the log's end, as the shipper's does,
// is then not called at all — the successor probe (a name, a path and a
// stat) is paid only by a caller that asks past the end.
func TestTailReaderAllocatesPerSession(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Create(dir, 1, wal.Options{Policy: wal.SyncAsync, SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	const rounds, perRound = 50, 40
	payload := bytes.Repeat([]byte("r"), 3000) // 40 of them cross the 64 KiB window
	for i := 0; i < (rounds+1)*perRound; i++ {
		if err := log.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := wal.OpenTail(dir, wal.Position{Segment: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	end := log.Position()
	allocs := testing.AllocsPerRun(rounds, func() {
		for i := 0; i < perRound; i++ {
			if ev, err := tr.Next(); err != nil || len(ev.Payload) != len(payload) {
				t.Fatalf("Next: %d bytes, %v", len(ev.Payload), err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%d records allocate %.1f times, want 0", perRound, allocs)
	}
	if tr.Pos() != end {
		t.Fatalf("reader at %v after every record, log ends at %v", tr.Pos(), end)
	}
	if allocs := testing.AllocsPerRun(10, func() { drain(t, tr, end) }); allocs != 0 {
		t.Errorf("a reader idle at the log's end allocates %.1f times, want 0", allocs)
	}
}

// TestTailReaderOversizedFrames: frames larger than the read-ahead
// window come out whole between small ones, and the buffer one of them
// needed is not what the next small record is read into.
func TestTailReaderOversizedFrames(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Create(dir, 1, wal.Options{Policy: wal.SyncAsync})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	sizes := []int{10, 200 << 10, 0, 64 << 10, 64<<10 - wal.FrameHeaderSize, 1 << 20, 7}
	for i, n := range sizes {
		if err := log.Append(bytes.Repeat([]byte{byte('a' + i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := wal.OpenTail(dir, wal.Position{Segment: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, n := range sizes {
		ev, err := tr.Next()
		if err != nil {
			t.Fatalf("record %d (%d bytes): %v", i, n, err)
		}
		if ev.Payload == nil || !bytes.Equal(ev.Payload, bytes.Repeat([]byte{byte('a' + i)}, n)) {
			t.Fatalf("record %d: got %d bytes, want %d of %q", i, len(ev.Payload), n, 'a'+i)
		}
		if n < 64<<10 && cap(ev.Payload) > 64<<10 {
			t.Errorf("record %d (%d bytes) was read into a %d-byte buffer: an oversized frame's buffer outlived it", i, n, cap(ev.Payload))
		}
	}
	if got := drain(t, tr, log.Position()); got != 0 {
		t.Fatalf("%d records past the last", got)
	}
}

// TestTailReaderLyingLengthReservesNothing: a frame header is believed
// only as far as the file goes. A length field claiming most of
// MaxRecordSize over a file that holds a few bytes is an append in
// flight (ErrNoRecord) and costs no buffer of that size.
func TestTailReaderLyingLengthReservesNothing(t *testing.T) {
	dir := t.TempDir()
	seg := append([]byte(wal.Magic), wal.Version)
	seg = binary.LittleEndian.AppendUint32(seg, wal.MaxRecordSize-1)
	seg = binary.LittleEndian.AppendUint32(seg, 0xdeadbeef)
	seg = append(seg, "only these bytes landed"...)
	if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := wal.OpenTail(dir, wal.Position{Segment: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = tr.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wal.ErrNoRecord) {
		t.Fatalf("got %v, want ErrNoRecord", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d-byte file cost %d bytes of allocation on its header's word", len(seg), grew)
	}
}

// TestReplayLyingLengthReservesNothing is the same for Replay: a frame
// whose length field claims most of MaxRecordSize over a file that holds
// a few bytes more is a torn frame — the records before it replay, the
// cut is at its start — and costs no buffer of the claimed size.
func TestReplayLyingLengthReservesNothing(t *testing.T) {
	dir := t.TempDir()
	seg := append([]byte(wal.Magic), wal.Version)
	good := []byte("a record that landed whole")
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(good)))
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(good))
	seg = append(seg, good...)
	cut := len(seg)
	seg = binary.LittleEndian.AppendUint32(seg, wal.MaxRecordSize-1)
	seg = binary.LittleEndian.AppendUint32(seg, 0xdeadbeef)
	seg = append(seg, "only these bytes landed"...)
	if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	info, err := wal.Replay(dir, 1, func(p []byte) error { got = append(got, bytes.Clone(p)); return nil })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], good) || info.Records != 1 || !info.Torn || info.ValidSize != int64(cut) {
		t.Fatalf("replayed %q, %+v; want the one record, torn at %d", got, info, cut)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d-byte file cost %d bytes of allocation on its header's word", len(seg), grew)
	}
}

// FuzzTailReader is the differential that makes the read-ahead safe:
// over any bytes after a valid segment header, a TailReader yields
// exactly the records Replay yields for the clean prefix — byte for
// byte, none whose CRC fails, for no more allocation than the read
// window and the segment's bytes — and then stops with ErrNoRecord or
// ErrCorruptRecord. The input spells a run of well-formed frames first
// (three bytes each: an 18-bit payload length, so that a few input bytes
// reach frames that straddle and exceed the 64 KiB window) and raw
// bytes after them; sealed puts a successor segment on disk, which
// turns a clean end into a hand-off and a torn one into corruption.
func FuzzTailReader(f *testing.F) {
	// The corpus is testdata/fuzz/FuzzTailReader; this seed is two small
	// records and a torn third.
	f.Add([]byte{5, 0, 0, 9, 0, 0}, []byte{4, 0, 0, 0, 1, 2}, false)
	f.Fuzz(func(t *testing.T, frames, raw []byte, sealed bool) {
		dir := t.TempDir()
		seg := append([]byte(wal.Magic), wal.Version)
		for i := 0; i+3 <= len(frames) && i < 3*8; i += 3 {
			n := (int(frames[i]) | int(frames[i+1])<<8 | int(frames[i+2])<<16) & (1<<18 - 1)
			payload := bytes.Repeat([]byte{frames[i]}, n)
			seg = binary.LittleEndian.AppendUint32(seg, uint32(n))
			seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(payload))
			seg = append(seg, payload...)
		}
		seg = append(seg, raw...)
		if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if sealed {
			if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(2)), seg[:wal.HeaderSize], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var want [][]byte
		info, err := wal.Replay(dir, 1, func(p []byte) error {
			want = append(want, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		clean := !info.Torn || info.Last == 2 // Last is 2 only when segment 1 ended cleanly

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := wal.OpenTail(dir, wal.Position{Segment: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		for i, w := range want {
			ev, err := tr.Next()
			if err != nil {
				t.Fatalf("record %d of %d: %v", i, len(want), err)
			}
			if ev.Payload == nil || !bytes.Equal(ev.Payload, w) {
				t.Fatalf("record %d: tail read %d bytes, replay %d", i, len(ev.Payload), len(w))
			}
		}
		// Reading the clean prefix costs the 64 KiB read window, the
		// buffers of frames larger than it (together no more than the
		// segment, each rounded up by under a page) and the open file.
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+len(seg)+8<<10*(len(want)+1)); grew > limit {
			t.Fatalf("reading %d records of a %d-byte segment cost %d bytes of allocation, limit %d", len(want), len(seg), grew, limit)
		}
		ev, err := tr.Next()
		switch {
		case sealed && clean:
			if err != nil || ev.Payload != nil || ev.Pos != (wal.Position{Segment: 2, Offset: int64(wal.HeaderSize)}) {
				t.Fatalf("clean end of a sealed segment: %+v, %v; want the hand-off", ev, err)
			}
			if _, err := tr.Next(); !errors.Is(err, wal.ErrNoRecord) {
				t.Fatalf("empty successor: %v, want ErrNoRecord", err)
			}
		case sealed:
			if !errors.Is(err, wal.ErrCorruptRecord) {
				t.Fatalf("damage in a sealed segment: %+v, %v; want ErrCorruptRecord", ev, err)
			}
		default:
			if !errors.Is(err, wal.ErrNoRecord) && !errors.Is(err, wal.ErrCorruptRecord) {
				t.Fatalf("past the clean prefix: %+v, %v; want ErrNoRecord or ErrCorruptRecord", ev, err)
			}
			if clean && !errors.Is(err, wal.ErrNoRecord) {
				t.Fatalf("clean end of the active segment: %v, want ErrNoRecord", err)
			}
		}
	})
}
