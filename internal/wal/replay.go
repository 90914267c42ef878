package wal

import (
	"errors"
	"fmt"
	"os"
	"slices"
)

// ReplayInfo summarises a Replay pass over a segment set.
type ReplayInfo struct {
	// Records is the number of valid records handed to the callback,
	// across every segment.
	Records int
	// Segments is how many segments carry the live stream
	// (Last-First+1). Trailing record-free segments past a tear are
	// not counted; they are overwritten by the next rotation.
	Segments int
	// First and Last are the lowest and highest segment indices of the
	// live stream; Last names the segment OpenAt reopens for
	// appending.
	First, Last uint64
	// ValidSize is the byte offset just past the last valid record of
	// segment Last — the size OpenAt truncates it to. A value below
	// HeaderSize means segment Last is a crashed creation (its header
	// never fully reached disk; it cannot hold a record) and OpenAt
	// recreates it.
	ValidSize int64
	// LiveBytes is the total valid bytes across the whole set (sealed
	// segments' full sizes plus the last segment's valid prefix) — the
	// figure Log.LiveBytes continues from.
	LiveBytes int64
	// Torn reports whether bytes past ValidSize were discarded from
	// segment Last (a truncated or CRC-failing tail, the signature of
	// a crash mid-append — or a crashed segment creation).
	Torn bool
}

// Replay streams every valid record of the segment set in dir through
// fn in append order: segments first, first+1, … are replayed in index
// order through one TailReader, the shipper's frame decoder — recovery
// memory stays O(max(largest record, 64 KiB)), not O(log size). A
// truncated or corrupt tail in the LAST segment is not an error: replay
// stops cleanly at the last record whose frame and CRC check out and
// reports the cut in the returned info. Likewise a last segment shorter
// than its header is a crashed creation — it cannot hold a record (the
// header is synced before a segment accepts appends) — reported as a
// torn empty tail for OpenAt to recreate.
//
// A torn frame in a NON-final segment is tolerated only when every
// later segment holds zero records (then the tear is still a clean
// suffix cut of the global stream — the signature of a crash between
// a checkpoint's segment creation and its pack's rename while the
// old tail was unsynced); Replay then cuts the stream at the tear and
// OpenAt resumes appending there. If any record exists after the
// tear, replay aborts with ErrTornSegment: rotation seals a segment
// with an fsync before its successor takes records, so a record past
// mid-set damage means corruption, and replaying it would reorder the
// stream (no record after the damage is handed to fn).
//
// A gap in the index sequence, a missing first segment, a misheadered
// non-final segment, or an fn error abort with an error (fn errors
// abort because a record that cannot be applied means recovered state
// would silently diverge from the log). The payload slice is reused
// between records: fn must not retain it after returning (decode
// copies what it keeps).
func Replay(dir string, first uint64, fn func(payload []byte) error) (ReplayInfo, error) {
	info := ReplayInfo{}
	indices, err := listSegments(dir, first)
	if err != nil {
		return info, err
	}
	info.First = indices[0]
	last := indices[len(indices)-1]
	t := &TailReader{dir: dir}
	defer t.Close()
	cut := false // a non-final tear was seen; later segments must be record-free
	for _, idx := range indices {
		records, torn, err := t.scan(idx, cut, fn)
		switch {
		case cut && err != nil && !errors.Is(err, ErrShortHeader):
			return info, fmt.Errorf("segment %s after torn %s: %w", SegmentName(idx), SegmentName(info.Last), err)
		case cut:
			continue // record-free, or another crashed creation
		case errors.Is(err, ErrShortHeader) && idx == last:
			// Crashed creation: adopt it as a torn, empty tail.
			info.Last, info.ValidSize, info.Torn = idx, 0, true
			continue
		case err != nil:
			return info, fmt.Errorf("segment %s: %w", SegmentName(idx), err)
		}
		info.Records += records
		info.LiveBytes += t.pos.Offset
		info.Last, info.ValidSize, info.Torn = idx, t.pos.Offset, torn
		cut = torn && idx != last
	}
	info.Segments = int(info.Last - info.First + 1)
	return info, nil
}

// listSegments returns the contiguous segment indices first, first+1,
// … present in dir. Indices below first are ignored (dead segments a
// checkpoint retired; the repository deletes them as orphans). A
// missing first segment or a gap is ErrMissingSegment.
func listSegments(dir string, first uint64) ([]uint64, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	names, err := d.Readdirnames(-1) // names only: no entry object, no sorted copy
	d.Close()
	if err != nil {
		return nil, err
	}
	var indices []uint64
	for _, name := range names {
		if idx, ok := ParseSegmentName(name); ok && idx >= first {
			indices = append(indices, idx)
		}
	}
	if len(indices) == 0 {
		return nil, fmt.Errorf("%w: no segment at or above %s", ErrMissingSegment, SegmentName(first))
	}
	slices.Sort(indices)
	if indices[0] != first {
		return nil, fmt.Errorf("%w: first live segment %s missing (lowest present: %s)",
			ErrMissingSegment, SegmentName(first), SegmentName(indices[0]))
	}
	for i := 1; i < len(indices); i++ {
		if indices[i] != indices[i-1]+1 {
			return nil, fmt.Errorf("%w: expected %s, found %s", ErrMissingSegment,
				SegmentName(indices[i-1]+1), SegmentName(indices[i]))
		}
	}
	return indices, nil
}
