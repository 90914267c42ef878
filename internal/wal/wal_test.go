package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// replayAll replays the segment set rooted at segment `first` in dir.
func replayAll(t *testing.T, dir string, first uint64) ([][]byte, ReplayInfo) {
	t.Helper()
	var got [][]byte
	info, err := Replay(dir, first, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, info
}

// segmentFiles lists the segment file names present in dir, sorted.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := ParseSegmentName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncGrouped, SyncAsync} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Create(dir, 1, Options{Policy: pol, FlushInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			var want [][]byte
			for i := 0; i < 20; i++ {
				p := []byte(fmt.Sprintf("record-%d-%s", i, pol))
				want = append(want, p)
				if err := l.Append(p); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			got, info := replayAll(t, dir, 1)
			if info.Torn {
				t.Fatal("unexpected torn tail")
			}
			if info.Records != len(want) {
				t.Fatalf("records = %d, want %d", info.Records, len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
				}
			}
			st, _ := os.Stat(filepath.Join(dir, SegmentName(info.Last)))
			if st.Size() != info.ValidSize {
				t.Fatalf("ValidSize %d != file size %d", info.ValidSize, st.Size())
			}
			if info.Segments != 1 || info.First != 1 || info.Last != 1 {
				t.Fatalf("set = [%d..%d] (%d segments), want just segment 1", info.First, info.Last, info.Segments)
			}
			if info.LiveBytes != info.ValidSize {
				t.Fatalf("LiveBytes %d != ValidSize %d for a one-segment set", info.LiveBytes, info.ValidSize)
			}
		})
	}
}

// TestConcurrentAppends: eight goroutines append under every policy,
// payloads from one byte to past what the log keeps of its frame buffer,
// each goroutine overwriting its one payload buffer as soon as Append
// returns. The log frames every record in a buffer of its own that it
// may only touch under its mutex — grouped sync unlocks before it waits —
// so replay, which checks every CRC, must return exactly the records
// appended.
func TestConcurrentAppends(t *testing.T) {
	sizes := []int{1, 7, 300, 4 << 10, maxKeptFrame, 100, 1}
	for _, pol := range []SyncPolicy{SyncGrouped, SyncAsync} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			// Tiny SegmentBytes so rotation happens under concurrent load.
			l, err := Create(dir, 1, Options{Policy: pol, FlushInterval: time.Millisecond, SegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}
			const goroutines, per = 8, 25
			// fill writes goroutine g's i-th payload into buf.
			fill := func(buf []byte, g, i int) []byte {
				buf = buf[:sizes[(g+i)%len(sizes)]]
				for j := range buf {
					buf[j] = byte(g*31 + i*7 + j)
				}
				return buf
			}
			want := map[string]int{}
			for g := 0; g < goroutines; g++ {
				for i := 0; i < per; i++ {
					want[string(fill(make([]byte, maxKeptFrame), g, i))]++
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, maxKeptFrame)
					for i := 0; i < per; i++ {
						if err := l.Append(fill(buf, g, i)); err != nil {
							t.Errorf("append: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got, info := replayAll(t, dir, 1)
			if len(got) != goroutines*per || info.Records != goroutines*per || info.Torn {
				t.Fatalf("replayed %d records (torn: %v), want %d", len(got), info.Torn, goroutines*per)
			}
			for _, p := range got {
				want[string(p)]--
			}
			for p, n := range want {
				if n != 0 {
					t.Fatalf("record of %d bytes starting %x: appended %d more times than replayed", len(p), p[:min(len(p), 4)], n)
				}
			}
			if info.Segments < 2 {
				t.Fatalf("expected rotation under load, got %d segment(s)", info.Segments)
			}
		})
	}
}

// Size-triggered rotation: appends spill into numbered segments, each
// below the threshold, and replay stitches the full record stream back
// in order.
func TestRotateBySize(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 30; i++ {
		p := []byte(fmt.Sprintf("payload-%02d-xxxxxxxxxxxxxxxx", i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.ActiveIndex() < 3 {
		t.Fatalf("active index = %d, want several rotations", l.ActiveIndex())
	}
	var sum int64
	for _, name := range segmentFiles(t, dir) {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > 128+int64(FrameHeaderSize)+32 {
			t.Fatalf("segment %s is %d bytes, way past the threshold", name, st.Size())
		}
		sum += st.Size()
	}
	if lb := l.LiveBytes(); lb != sum {
		t.Fatalf("LiveBytes = %d, files sum to %d", lb, sum)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, info := replayAll(t, dir, 1)
	if info.Records != len(want) || info.Torn {
		t.Fatalf("records=%d torn=%v, want %d clean", info.Records, info.Torn, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if int(info.Last-info.First)+1 != info.Segments {
		t.Fatalf("segment range [%d..%d] inconsistent with count %d", info.First, info.Last, info.Segments)
	}
}

// Explicit rotation seals the active segment and appends continue in
// the next one; OpenAt after replay appends to the newest segment.
func TestExplicitRotate(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	idx, err := l.Rotate()
	if err != nil || idx != 8 {
		t.Fatalf("rotate: index %d, err %v; want 8, nil", idx, err)
	}
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, info := replayAll(t, dir, 7)
	if info.Records != 2 || info.First != 7 || info.Last != 8 {
		t.Fatalf("info = %+v, want 2 records across [7..8]", info)
	}
	l2, err := OpenAt(dir, info, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l2.ActiveIndex() != 8 {
		t.Fatalf("reopened active index = %d, want 8", l2.ActiveIndex())
	}
	if err := l2.Append([]byte("resumed")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, info = replayAll(t, dir, 7)
	if info.Records != 3 || string(got[2]) != "resumed" {
		t.Fatalf("after reopen: %d records, last %q", info.Records, got[len(got)-1])
	}
}

// Torn tail: a crash mid-append leaves a partial frame; replay must
// stop cleanly at the last whole record and OpenAt must truncate the
// tail so appending resumes at the cut.
func TestTornTailTruncatedFrame(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("commit-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentName(1))
	whole, _ := os.Stat(path)
	// Chop into the middle of the last record's payload.
	if err := os.Truncate(path, whole.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, info := replayAll(t, dir, 1)
	if !info.Torn {
		t.Fatal("expected torn tail")
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
	// Reopen at the valid size and keep appending.
	l2, err := OpenAt(dir, info, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, info = replayAll(t, dir, 1)
	if info.Torn || len(got) != 5 {
		t.Fatalf("after reopen: torn=%v records=%d, want clean 5", info.Torn, len(got))
	}
	if string(got[4]) != "after-recovery" {
		t.Fatalf("last record = %q", got[4])
	}
}

// A flipped byte in the last record's payload must fail its CRC and be
// discarded as a torn tail.
func TestTornTailCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("commit-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, info := replayAll(t, dir, 1)
	if !info.Torn || len(got) != 2 {
		t.Fatalf("torn=%v records=%d, want torn 2", info.Torn, len(got))
	}
}

// A torn frame in a NON-final segment followed by a record is
// corruption, not a tolerated tail: records after the cut would
// replay out of order.
func TestTornMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("first-segment-record")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("second-segment-record")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, SegmentName(1))
	st, _ := os.Stat(first)
	if err := os.Truncate(first, st.Size()-2); err != nil {
		t.Fatal(err)
	}
	applied := 0
	if _, err := Replay(dir, 1, func([]byte) error { applied++; return nil }); !errors.Is(err, ErrTornSegment) {
		t.Fatalf("torn middle segment: %v, want ErrTornSegment", err)
	}
	// Segment 1's only record is the torn one, and segment 2's record
	// sits past the tear: neither may reach the callback.
	if applied != 0 {
		t.Fatalf("%d records applied, want 0 (nothing valid before the tear, nothing allowed after)", applied)
	}
}

// A torn non-final segment whose successors are record-free is the one
// mid-set shape a crash can produce (checkpoint died between creating
// its fresh segment and switching the manifest, old tail unsynced):
// replay cuts the stream at the tear and appending resumes there.
func TestTornSegmentBeforeEmptyTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear segment 1's last record, then create the empty successor a
	// dying checkpoint would have left.
	path := filepath.Join(dir, SegmentName(1))
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-1); err != nil {
		t.Fatal(err)
	}
	l2, err := Create(dir, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	got, info := replayAll(t, dir, 1)
	if len(got) != 3 || !info.Torn || info.Last != 1 {
		t.Fatalf("records=%d torn=%v last=%d, want 3 torn records cut at segment 1", len(got), info.Torn, info.Last)
	}
	l3, err := OpenAt(dir, info, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l3.Append([]byte("resumed")); err != nil {
		t.Fatal(err)
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	got, info = replayAll(t, dir, 1)
	if len(got) != 4 || string(got[3]) != "resumed" {
		t.Fatalf("after resume: %d records, last %q", len(got), got[len(got)-1])
	}
}

// A last segment shorter than its header is a crashed creation — no
// record can have landed in it (the header syncs before a segment
// accepts appends) — so recovery recreates it rather than failing
// forever.
func TestCrashedSegmentCreationRecovers(t *testing.T) {
	for _, short := range []int64{0, 3} {
		t.Run(fmt.Sprintf("%dbytes", short), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Create(dir, 1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte("kept")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// The crashed creation: segment 2's header only partially
			// (or not at all) on disk.
			if err := os.WriteFile(filepath.Join(dir, SegmentName(2)), []byte(Magic)[:short], 0o644); err != nil {
				t.Fatal(err)
			}
			got, info := replayAll(t, dir, 1)
			if len(got) != 1 || !info.Torn || info.Last != 2 || info.ValidSize != 0 {
				t.Fatalf("info=%+v records=%d, want 1 record, torn empty tail at segment 2", info, len(got))
			}
			l2, err := OpenAt(dir, info, Options{})
			if err != nil {
				t.Fatalf("reopen over crashed creation: %v", err)
			}
			if l2.ActiveIndex() != 2 {
				t.Fatalf("active = %d, want recreated segment 2", l2.ActiveIndex())
			}
			if err := l2.Append([]byte("after")); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got, info = replayAll(t, dir, 1)
			if len(got) != 2 || info.Torn || string(got[1]) != "after" {
				t.Fatalf("after recreate: records=%d torn=%v", len(got), info.Torn)
			}
		})
	}
}

// A gap in the index sequence (or a missing first segment) aborts
// replay: the record stream would have a hole.
func TestMissingSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, SegmentName(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 1, func([]byte) error { return nil }); !errors.Is(err, ErrMissingSegment) {
		t.Fatalf("gapped set: %v, want ErrMissingSegment", err)
	}
	if _, err := Replay(dir, 5, func([]byte) error { return nil }); !errors.Is(err, ErrMissingSegment) {
		t.Fatalf("missing first: %v, want ErrMissingSegment", err)
	}
}

func TestHeaderValidation(t *testing.T) {
	dir := t.TempDir()
	// An empty lone segment is a crashed creation, not corruption: it
	// replays as a torn empty tail (recreated by OpenAt).
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := Replay(dir, 1, func([]byte) error { return nil })
	if err != nil || !info.Torn || info.ValidSize != 0 {
		t.Fatalf("empty lone segment: info=%+v err=%v, want torn empty tail", info, err)
	}
	// A full-size header with the wrong magic or version is corruption.
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), []byte("NOPE\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 1, func([]byte) error { return nil }); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("bad magic: %v, want ErrBadHeader", err)
	}
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), []byte("XWAL\x7f"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 1, func([]byte) error { return nil }); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("bad version: %v, want ErrBadHeader", err)
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, idx := range []uint64{1, 42, 99999999, 100000001} {
		name := SegmentName(idx)
		got, ok := ParseSegmentName(name)
		if !ok || got != idx {
			t.Fatalf("ParseSegmentName(%q) = %d, %v", name, got, ok)
		}
	}
	// Only the canonical zero-padded form is a segment name: stray
	// near-misses (hand-made copies, foreign tools) must not enter the
	// contiguity check.
	for _, bad := range []string{"wal-.log", "wal-12x4.log", "snapshot-000001.xdyn", "wal-000001log", "MANIFEST",
		"wal-1.log", "wal-0000001.log", "wal-000000001.log", "wal-00000001.log.bak"} {
		if _, ok := ParseSegmentName(bad); ok {
			t.Fatalf("ParseSegmentName(%q) accepted", bad)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Create(t.TempDir(), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v, want ErrClosed", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("rotate after close: %v, want ErrClosed", err)
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Append([]byte("a"))
	_ = l.Append([]byte("b"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err = Replay(dir, 1, func(p []byte) error {
		if string(p) == "b" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("replay error = %v, want wrapped boom", err)
	}
}
