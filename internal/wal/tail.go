// Record-level tailing: a TailReader follows a live segment set from a
// byte position, yielding one CRC-checked record at a time and handing
// off to the successor segment at rotation — the read-side twin of
// Append that replication's shipper (internal/replica) streams from.
// Unlike Replay, which consumes a closed set once, a TailReader is
// meant to outlive the current end of the log: when it catches up with
// the append tail it reports ErrNoRecord and can be retried after the
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
	dir     string
	pos     Position
	f       *os.File
	payload []byte // reused record buffer
}

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
	return &TailReader{dir: dir, pos: pos, f: f}, nil
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
		return nil, fmt.Errorf("%w: %s", ErrBadHeader, SegmentName(index))
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
// live tailing reads only what a healthy writer produced, so unlike
// Replay there is no torn tail to tolerate.
func (t *TailReader) Next() (TailEvent, error) {
	for {
		payload, n, err := t.tryRecord()
		if err == nil {
			t.pos.Offset += n
			return TailEvent{Payload: payload, Pos: t.pos}, nil
		}
		if !errors.Is(err, ErrNoRecord) {
			return TailEvent{}, err
		}
		// Caught up with this segment's current end. If a successor
		// exists the segment is sealed — but bytes may have landed
		// between our read and the rotation, so re-read once before
		// concluding the segment is exhausted.
		next := SegmentName(t.pos.Segment + 1)
		if _, serr := os.Stat(filepath.Join(t.dir, next)); serr != nil {
			return TailEvent{}, ErrNoRecord
		}
		payload, n, err = t.tryRecord()
		if err == nil {
			t.pos.Offset += n
			return TailEvent{Payload: payload, Pos: t.pos}, nil
		}
		if !errors.Is(err, ErrNoRecord) {
			return TailEvent{}, err
		}
		if partial, perr := t.hasPartialFrame(); perr != nil {
			return TailEvent{}, perr
		} else if partial {
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
		t.f = f
		t.pos = Position{Segment: t.pos.Segment + 1, Offset: int64(HeaderSize)}
		return TailEvent{Payload: nil, Pos: t.pos}, nil
	}
}

// tryRecord attempts to read one complete frame at the current offset,
// returning the payload and the frame's total length. ErrNoRecord
// means the bytes for a full frame are not there (yet); ErrCorruptRecord
// means a full frame is present but fails its CRC.
func (t *TailReader) tryRecord() ([]byte, int64, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := t.f.ReadAt(hdr[:], t.pos.Offset); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, 0, ErrNoRecord
		}
		return nil, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxRecordSize {
		return nil, 0, fmt.Errorf("%w: frame at %s claims %d bytes", ErrCorruptRecord, t.pos, length)
	}
	if uint32(cap(t.payload)) < length {
		t.payload = make([]byte, length)
	}
	t.payload = t.payload[:length]
	if _, err := t.f.ReadAt(t.payload, t.pos.Offset+FrameHeaderSize); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, ErrNoRecord
		}
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(t.payload) != want {
		// A full payload read can still be an in-flight append caught
		// between the frame-header write and the payload bytes landing
		// only if the file grows past the frame later; distinguishing
		// that from corruption is the caller's re-read-after-seal job.
		// Within one segment a writer appends a frame with a single
		// write call, so a fully readable frame with a bad CRC is
		// corruption.
		return nil, 0, fmt.Errorf("%w: crc mismatch at %s", ErrCorruptRecord, t.pos)
	}
	return t.payload, int64(FrameHeaderSize) + int64(length), nil
}

// hasPartialFrame reports whether any bytes exist past the current
// offset (a torn frame) without consuming them.
func (t *TailReader) hasPartialFrame() (bool, error) {
	var b [1]byte
	_, err := t.f.ReadAt(b[:], t.pos.Offset)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, io.EOF) {
		return false, nil
	}
	return false, err
}
