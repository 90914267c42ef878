package wal_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"xmldyn/internal/wal"
)

// TestReplayAllocatesPerLogNotPerSegment pins what a segment costs a
// replay: one reader and its window serve the whole set, so a segment
// adds its file handle and header check and little else — no stream
// buffer, frame header or payload buffer of its own.
func TestReplayAllocatesPerLogNotPerSegment(t *testing.T) {
	const perSegment, size = 20, 100
	replayBytes := func(segments int) uint64 {
		dir := t.TempDir()
		log, err := wal.Create(dir, 1, wal.Options{Policy: wal.SyncAsync, SegmentBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("p"), size)
		for s := 0; s < segments; s++ {
			if s > 0 {
				if _, err := log.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < perSegment; i++ {
				if err := log.Append(payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			info, err := wal.Replay(dir, 1, func([]byte) error { return nil })
			if err != nil || info.Records != segments*perSegment {
				t.Fatalf("replay of %d segments: %d records, %v", segments, info.Records, err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	few, many := replayBytes(4), replayBytes(20)
	if perExtra := (float64(many) - float64(few)) / 16; perExtra > 1024 {
		t.Errorf("each extra segment allocates %.0f B (4 segments %d B, 20 segments %d B), want at most 1024",
			perExtra, few, many)
	}
}

// validFrames is the reference decoder: the whole, CRC-valid frames of
// one segment file from its header on, and the offset just past them.
func validFrames(seg []byte) (records [][]byte, end int) {
	for end = wal.HeaderSize; len(seg)-end >= wal.FrameHeaderSize; {
		n := binary.LittleEndian.Uint32(seg[end:])
		body := seg[end+wal.FrameHeaderSize:]
		if n > wal.MaxRecordSize || int(n) > len(body) || crc32.ChecksumIEEE(body[:n]) != binary.LittleEndian.Uint32(seg[end+4:]) {
			break
		}
		records = append(records, body[:n])
		end += wal.FrameHeaderSize + int(n)
	}
	return records, end
}

// frame spells one record as Append writes it.
func frame(payload string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(payload)))
	return append(b, payload...)
}

// FuzzReplay holds recovery's rules over arbitrary bytes. The input is
// one to three segment files (segs%3+1 of a, b and c), each written
// after a valid header unless its bit in headless is set, in which case
// its bytes are the whole file. Whatever Replay accepts must be exactly
// what the reference decoder reads: the whole, CRC-valid frames of
// segments First through Last, every segment before Last read to its
// end, Last read to ValidSize and no further, and ValidSize within the
// file. The log must then resume there: OpenAt, one Append and a second
// Replay yield that prefix and the new record. And a frame's length is
// believed only as far as its file goes, so no input costs a buffer of
// the size a header claims.
func FuzzReplay(f *testing.F) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	lying := binary.LittleEndian.AppendUint32(nil, wal.MaxRecordSize-1)
	lying = append(binary.LittleEndian.AppendUint32(lying, 0xdeadbeef), "few bytes"...)
	f.Add(uint8(2), uint8(0), cat(frame("a"), frame("bb")), frame("c"), frame("dd")[:5]) // torn tail
	f.Add(uint8(2), uint8(0), cat(frame("x"), frame("y")[:3]), []byte{}, []byte{})       // torn before empty segments
	f.Add(uint8(1), uint8(0), frame("x")[:9], frame("after the tear"), []byte{})         // record past a tear
	f.Add(uint8(1), uint8(0), frame("x")[:1], frame("after the tear"), []byte{})         // the same, torn in a frame header
	f.Add(uint8(1), uint8(2), frame("kept"), []byte("XW"), []byte{})                     // crashed creation
	f.Add(uint8(0), uint8(0), cat(frame("ok"), lying), []byte{}, []byte{})               // lying length
	f.Add(uint8(0), uint8(1), []byte("NOPE\x01"), []byte{}, []byte{})                    // bad magic
	f.Fuzz(func(t *testing.T, segs, headless uint8, a, b, c []byte) {
		dir := t.TempDir()
		files := [][]byte{a, b, c}[:segs%3+1]
		for i, data := range files {
			if headless&(1<<i) == 0 {
				files[i] = append(append([]byte(wal.Magic), wal.Version), data...)
			}
			if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(uint64(i+1))), files[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var got [][]byte
		collect := func(p []byte) error { got = append(got, bytes.Clone(p)); return nil }
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := wal.Replay(dir, 1, collect)
		runtime.ReadMemStats(&after)
		input := len(a) + len(b) + len(c)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+4*uint64(input) {
			t.Fatalf("%d input bytes cost %d bytes of allocation", input, grew)
		}
		if err != nil {
			return
		}
		last := files[info.Last-1]
		if info.ValidSize > int64(len(last)) {
			t.Fatalf("ValidSize %d past the %d-byte segment %d", info.ValidSize, len(last), info.Last)
		}
		var want [][]byte
		for i := info.First; i <= info.Last; i++ {
			records, end := validFrames(files[i-1])
			switch {
			case i < info.Last && end != len(files[i-1]):
				t.Fatalf("segment %d before Last %d read to %d of %d bytes", i, info.Last, end, len(files[i-1]))
			case i == info.Last && info.ValidSize < int64(wal.HeaderSize):
				if info.ValidSize != 0 || len(last) >= wal.HeaderSize {
					t.Fatalf("ValidSize %d for a %d-byte last segment", info.ValidSize, len(last))
				}
				records = nil
			case i == info.Last && int64(end) != info.ValidSize:
				t.Fatalf("segment %d: ValidSize %d, whole frames end at %d", i, info.ValidSize, end)
			}
			want = append(want, records...)
		}
		if len(got) != len(want) || info.Records != len(want) {
			t.Fatalf("replayed %d records (info says %d), reference decoder %d", len(got), info.Records, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: replayed %q, reference decoder %q", i, got[i], want[i])
			}
		}
		if torn := info.ValidSize < int64(len(last)) || info.ValidSize < int64(wal.HeaderSize); info.Torn != torn {
			t.Fatalf("Torn = %v with ValidSize %d of %d bytes", info.Torn, info.ValidSize, len(last))
		}
		// A crashed creation past a tear with another segment after it
		// would be two crashed creations in a row, which rotation's order
		// rules out; once the tear is mended it reads as a misheadered
		// non-final segment, so the resumed log is not checked there.
		for i := int(info.Last); i < len(files)-1; i++ {
			if len(files[i]) < wal.HeaderSize {
				return
			}
		}
		log, err := wal.OpenAt(dir, info, wal.Options{Policy: wal.SyncAsync})
		if err != nil {
			t.Fatalf("OpenAt %+v: %v", info, err)
		}
		if err := log.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		want, got = append(got, []byte("appended")), nil
		if _, err := wal.Replay(dir, 1, collect); err != nil {
			t.Fatalf("replay after resuming at %+v: %v", info, err)
		}
		if len(got) != len(want) {
			t.Fatalf("resumed log replays %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("resumed log, record %d: %q, want %q", i, got[i], want[i])
			}
		}
	})
}
