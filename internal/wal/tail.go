// Record-level reading: a TailReader reads a segment set from a byte
// position, yielding one CRC-checked record at a time — the read-side
// twin of Append, and the log's one frame decoder. Replay drives it over
// a closed set once, segment by segment (scan); replication's shipper
// (internal/replica) drives it over the live set (Next), handing off to
// the successor segment at rotation, and when it catches up with the
// append tail it reports ErrNoRecord and can be retried after the
// writer signals progress.

package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Tailing errors.
var (
	// ErrNoRecord reports that the reader has caught up with the append
	// tail: no complete record exists past the current position yet.
	// Retry after the writer makes progress.
	ErrNoRecord = errors.New("wal: no record available yet")
	// ErrCorruptRecord reports a full frame whose CRC does not match in
	// a position a live writer can no longer be appending to — real
	// corruption, not an in-flight append.
	ErrCorruptRecord = errors.New("wal: corrupt record in live segment set")
)

// Position addresses a byte boundary in the global record stream: a
// segment index and a byte offset within that segment file. Offsets
// always sit on frame boundaries (or the header end, HeaderSize, for a
// fresh segment). Positions order lexicographically: segment first,
// then offset.
type Position struct {
	// Segment is the segment index (SegmentPattern).
	Segment uint64
	// Offset is the byte offset within the segment file, just past the
	// last consumed record (HeaderSize when none).
	Offset int64
}

// Less reports whether p addresses an earlier stream byte than q.
func (p Position) Less(q Position) bool {
	if p.Segment != q.Segment {
		return p.Segment < q.Segment
	}
	return p.Offset < q.Offset
}

// String formats a position as segment:offset.
func (p Position) String() string { return fmt.Sprintf("%s:%d", SegmentName(p.Segment), p.Offset) }

// Position returns the log's current append position: the active
// segment index and its size. Every record appended so far lies
// strictly below it.
func (l *Log) Position() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Position{Segment: l.active, Offset: l.size}
}

// TailEvent is one step of a tailed stream: either a record (Payload
// non-nil) or a segment hand-off (Payload nil — the reader moved to a
// new segment whose index is Pos.Segment). Hand-offs are reported
// eagerly, one per traversed segment, so a consumer mirroring the
// stream reproduces the leader's exact segment boundaries, empty
// segments included.
type TailEvent struct {
	// Payload is the record payload, valid until the next Next call
	// (the buffer is reused); nil for a hand-off event.
	Payload []byte
	// Pos is the position just past this event: after the record's
	// frame, or {newSegment, HeaderSize} for a hand-off.
	Pos Position
}

// TailReader reads records from a segment set in append order,
// starting at an arbitrary frame boundary, and keeps working while a
// Log in the same directory appends: at the end of a sealed segment it
// hands off to the successor, at the end of the active segment it
// reports ErrNoRecord until more records land. It reads the files
// directly and needs no reference to the writing Log; it is NOT safe
// for concurrent use by multiple goroutines.
type TailReader struct {
	dir string
	pos Position
	f   *os.File
	// buf is the read-ahead buffer, allocated once at OpenTail (Replay's
	// grows to the largest segment it scans, up to tailWindow); win is
	// what is read and not yet consumed of the file from pos.Offset on.
	// It aliases buf, or a frame's own buffer when the frame is larger.
	buf, win []byte
}

// tailWindow is how far a TailReader reads ahead: one ReadAt fetches up
// to this many bytes and the frames that lie whole in them cost no
// further read. A frame larger than the window is read into a buffer of
// its own that goes with it — the tail's counterpart of maxKeptFrame.
const tailWindow = 64 << 10

// OpenTail positions a TailReader at pos. The segment file must exist
// and hold a valid header; pos.Offset must be a frame boundary at or
// past the header (an Offset of 0 is normalised to HeaderSize).
func OpenTail(dir string, pos Position) (*TailReader, error) {
	if pos.Offset < int64(HeaderSize) {
		pos.Offset = int64(HeaderSize)
	}
	f, err := openSegment(dir, pos.Segment)
	if err != nil {
		return nil, err
	}
	return &TailReader{dir: dir, pos: pos, f: f, buf: make([]byte, tailWindow)}, nil
}

// openSegment opens segment index for reading and validates its header.
func openSegment(dir string, index uint64) (*os.File, error) {
	f, err := os.Open(filepath.Join(dir, SegmentName(index)))
	if err != nil {
		return nil, err
	}
	header := make([]byte, HeaderSize)
	if _, err := io.ReadFull(f, header); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: %v", ErrShortHeader, SegmentName(index), err)
	}
	if string(header[:len(Magic)]) != Magic || header[len(Magic)] != Version {
		f.Close()
		return nil, fmt.Errorf("%w: %s: magic %q, version %d", ErrBadHeader, SegmentName(index), header[:len(Magic)], header[len(Magic)])
	}
	return f, nil
}

// Pos returns the reader's current position: just past the last event
// Next returned.
func (t *TailReader) Pos() Position { return t.pos }

// Close releases the underlying file.
func (t *TailReader) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

// Next returns the next stream event: the next record of the current
// segment, or — when the segment is exhausted and its successor exists
// on disk — a hand-off event moving the reader to the successor.
// Rotation seals a segment with an fsync strictly before its successor
// is created, so once the successor is visible, a clean end of the
// current file is final and the hand-off is safe. At the end of the
// active segment (no successor yet) Next returns ErrNoRecord; retry
// after the writer signals progress. A partial frame whose segment has
// a successor, or a full frame failing its CRC, is ErrCorruptRecord:
// live tailing reads only what a healthy writer produced, so there is
// no torn tail to tolerate (Replay tolerates one, after a crash).
func (t *TailReader) Next() (TailEvent, error) {
	ev, err := t.tryRecord()
	if !errors.Is(err, ErrNoRecord) {
		return ev, err
	}
	// Caught up with this segment's current end. If a successor
	// exists the segment is sealed — but bytes may have landed
	// between our read and the rotation, so re-read once before
	// concluding the segment is exhausted.
	next := SegmentName(t.pos.Segment + 1)
	if _, serr := os.Stat(filepath.Join(t.dir, next)); serr != nil {
		return TailEvent{}, ErrNoRecord
	}
	if ev, err = t.tryRecord(); !errors.Is(err, ErrNoRecord) {
		return ev, err
	}
	if len(t.win) > 0 {
		// A torn frame in a sealed segment: rotation synced every
		// appended byte before creating the successor, so this is
		// not an in-flight append.
		return TailEvent{}, fmt.Errorf("%w: torn frame in sealed %s at offset %d",
			ErrCorruptRecord, SegmentName(t.pos.Segment), t.pos.Offset)
	}
	// The successor becomes visible before its header is written
	// (creation and header write are two steps): a short header
	// here is a rotation in flight, not damage — stay on the sealed
	// segment and let the caller retry.
	f, err := openSegment(t.dir, t.pos.Segment+1)
	if errors.Is(err, ErrShortHeader) {
		return TailEvent{}, ErrNoRecord
	}
	if err != nil {
		return TailEvent{}, err
	}
	_ = t.f.Close()
	t.f, t.win = f, nil
	t.pos = Position{Segment: t.pos.Segment + 1, Offset: int64(HeaderSize)}
	return TailEvent{Payload: nil, Pos: t.pos}, nil
}

// scan reads segment index from its header on for Replay: each whole,
// CRC-valid record goes to fn in order, and the scan stops at the first
// frame that is not one — the segment is torn when the file holds bytes
// past it, clean when it holds none. A recordFree scan fails with
// ErrTornSegment on its first record instead. The window grows to the
// largest segment scanned so far, up to tailWindow.
func (t *TailReader) scan(index uint64, recordFree bool, fn func(payload []byte) error) (records int, torn bool, err error) {
	f, err := openSegment(t.dir, index)
	if err != nil {
		return 0, false, err
	}
	_ = t.Close()
	t.f, t.win, t.pos = f, nil, Position{Segment: index, Offset: int64(HeaderSize)}
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	if n := min(fi.Size()-t.pos.Offset, tailWindow); n > int64(len(t.buf)) {
		t.buf = make([]byte, n)
	}
	for ; ; records++ {
		ev, err := t.tryRecord()
		switch {
		case errors.Is(err, ErrNoRecord), errors.Is(err, ErrCorruptRecord):
			return records, t.pos.Offset < fi.Size(), nil
		case err != nil:
			return records, false, err
		case recordFree:
			return records, false, ErrTornSegment
		}
		if err := fn(ev.Payload); err != nil {
			return records, false, fmt.Errorf("wal: replay record %d: %w", records, err)
		}
	}
}

// tryRecord consumes the frame at the current offset, if it is whole,
// and returns it as an event. ErrNoRecord means the bytes for a full
// frame are not there (yet); ErrCorruptRecord means a full frame is
// present but fails its CRC.
func (t *TailReader) tryRecord() (TailEvent, error) {
	hdr, err := t.peek(FrameHeaderSize)
	if err != nil {
		return TailEvent{}, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxRecordSize {
		return TailEvent{}, fmt.Errorf("%w: frame at %s claims %d bytes", ErrCorruptRecord, t.pos, length)
	}
	n := FrameHeaderSize + int(length)
	frame, err := t.peek(n)
	if err != nil {
		return TailEvent{}, err
	}
	payload := frame[FrameHeaderSize:n:n]
	if crc32.ChecksumIEEE(payload) != want {
		// A writer appends a frame with a single write call and the file
		// grows only past bytes that have landed, so a fully readable
		// frame with a bad CRC is corruption, not an append in flight.
		return TailEvent{}, fmt.Errorf("%w: crc mismatch at %s", ErrCorruptRecord, t.pos)
	}
	t.pos.Offset += int64(n)
	if t.win = frame[n:]; len(t.win) == 0 {
		t.win = nil // an oversized frame's buffer is the payload's alone now
	}
	return TailEvent{Payload: payload, Pos: t.pos}, nil
}

// peek returns the n bytes of the file at the current offset: out of the
// window when it holds them, else after one ReadAt that refills the
// window from that offset — so what follows a failed peek in t.win is
// what the file held there, and a partial frame is never trusted from an
// earlier read. ErrNoRecord means the file does not hold n bytes there
// (yet). A frame's length is believed only as far as the file goes: a
// buffer larger than the window is made once the file is known to hold
// the frame, never on the header's word alone.
func (t *TailReader) peek(n int) ([]byte, error) {
	if len(t.win) >= n {
		return t.win, nil
	}
	buf := t.buf
	if n > len(buf) {
		fi, err := t.f.Stat()
		if err != nil {
			return nil, err
		}
		if fi.Size()-t.pos.Offset < int64(n) {
			return nil, ErrNoRecord
		}
		buf = make([]byte, n)
	}
	got, err := t.f.ReadAt(buf, t.pos.Offset)
	if t.win = buf[:got]; got >= n {
		return t.win, nil
	}
	if errors.Is(err, io.EOF) { // a short ReadAt always says why
		return nil, ErrNoRecord
	}
	return nil, err
}
