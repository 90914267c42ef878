// Package wal is the repository's write-ahead log: an append-only,
// CRC-checked, length-prefixed record log that makes committed update
// batches durable before the next whole-repository snapshot. The
// package knows nothing about XML or update semantics — records are
// opaque byte payloads framed and checksummed here; the repository
// layer (internal/repo) defines what a payload means and internal/
// update defines how a batch of ops serialises into one.
//
// The log is **segmented**: it is a set of numbered files
// ("wal-%08d.log", indices monotonic and never reused) in one
// directory, of which exactly one — the highest-numbered — is open for
// appending. When the active segment would outgrow the size policy
// (Options.SegmentBytes) the log rotates: the active segment is
// fsynced, sealed and closed, and a fresh segment with the next index
// is created. Sealed segments are immutable, which is what lets a
// checkpoint retire any prefix of the set by deleting whole files and
// lets recovery cost stay proportional to the live suffix instead of
// the full history.
//
// On-disk layout of one segment (the full specification, including the
// payload grammar the repository writes, lives in docs/DURABILITY.md
// and is kept honest by a golden-constants test):
//
//	header:  magic "XWAL" | version byte 1
//	record:  payload length (uint32 LE) | CRC-32/IEEE of payload (uint32 LE) | payload
//
// Records are appended, never rewritten. Replay streams the segment
// set back in index order and stops cleanly at the first frame of the
// LAST segment that is truncated or fails its CRC — a torn tail from a
// crash mid-append loses only the commit that was being written, never
// an earlier one. Rotation seals segments with an fsync before their
// successor exists, so a well-formed crash can only tear the newest
// one; replay therefore accepts damage elsewhere only in the one
// shape a crash can legitimately produce (a tear followed by nothing
// but record-free segments — a checkpoint that died between creating
// its fresh segment and switching the manifest) and aborts as corrupt
// on any record past a tear or any gap in the index sequence. OpenAt
// then truncates the torn tail so new appends extend the last valid
// record, recreating the tail segment if its creation itself crashed.
//
// Durability is configurable per log (SyncPolicy): fsync on every
// append, grouped fsyncs that let concurrent committers share one disk
// flush, or fully asynchronous fsyncs from a background flusher with a
// bounded loss window.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On-disk format constants. docs/DURABILITY.md documents these values;
// TestDurabilityDocConstants fails if doc and code drift apart.
const (
	// Magic opens every WAL segment file.
	Magic = "XWAL"
	// Version is the current WAL format version byte.
	Version = 1
	// HeaderSize is the byte length of the segment header (magic + version).
	HeaderSize = len(Magic) + 1
	// FrameHeaderSize is the byte length of a record frame header
	// (uint32 payload length + uint32 CRC, both little-endian).
	FrameHeaderSize = 8
	// MaxRecordSize bounds a single record payload; a frame claiming
	// more is treated as corruption.
	MaxRecordSize = 1 << 30
	// SegmentPattern is the fmt pattern of segment file names; the
	// decimal index is zero-padded to eight digits so lexical order is
	// numeric order for every index below 10^8.
	SegmentPattern = "wal-%08d.log"
	// DefaultSegmentBytes is the rotation threshold used when
	// Options.SegmentBytes is zero: an append that would push the
	// active segment past it rotates to a fresh segment first.
	DefaultSegmentBytes = 4 << 20
)

// DefaultFlushInterval is the async policy's background fsync period —
// the upper bound on the crash loss window.
const DefaultFlushInterval = 50 * time.Millisecond

// Errors reported by the log.
var (
	ErrClosed         = errors.New("wal: log is closed")
	ErrBadHeader      = errors.New("wal: bad segment header")
	ErrTooLarge       = errors.New("wal: record exceeds MaxRecordSize")
	ErrShortHeader    = errors.New("wal: segment shorter than header")
	ErrMissingSegment = errors.New("wal: segment set has a gap")
	ErrTornSegment    = errors.New("wal: torn record in a non-final segment")
)

// SegmentName returns the file name of segment index (SegmentPattern).
func SegmentName(index uint64) string { return fmt.Sprintf(SegmentPattern, index) }

// ParseSegmentName extracts the index from a segment file name,
// reporting whether name matches SegmentPattern exactly — the
// canonical zero-padded form only (8 digits, or more without a
// leading zero for indices ≥ 10^8). Rejecting near-misses like
// "wal-7.log" matters: a stray foreign file that parsed as an index
// would corrupt the contiguity check and wedge recovery.
func ParseSegmentName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, ".log")
	if !ok || len(digits) < 8 || (len(digits) > 8 && digits[0] == '0') {
		return 0, false
	}
	idx, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	if SegmentName(idx) != name {
		return 0, false
	}
	return idx, true
}

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

// The fsync policies.
const (
	// SyncPerCommit fsyncs inside every Append: a returned Append is
	// durable. Highest latency, zero loss window.
	SyncPerCommit SyncPolicy = iota
	// SyncGrouped batches committers into shared fsyncs: Append blocks
	// until a flusher fsync covers it, so a returned Append is still
	// durable, but committers that arrive while an fsync is in flight
	// share the next one — N concurrent committers pay ~1 fsync between
	// them instead of N.
	SyncGrouped
	// SyncAsync returns from Append after the buffered write; a
	// background flusher fsyncs every FlushInterval. Lowest latency,
	// loss window bounded by the interval.
	SyncAsync
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncPerCommit:
		return "per-commit"
	case SyncGrouped:
		return "grouped"
	case SyncAsync:
		return "async"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures a log.
type Options struct {
	// Policy is the fsync policy (default SyncPerCommit).
	Policy SyncPolicy
	// GroupWindow is an optional pacing pause the grouped flusher
	// inserts before each shared fsync, trading commit latency for
	// larger groups. Default none: group size emerges from committers
	// accumulating while the previous fsync is in flight.
	GroupWindow time.Duration
	// FlushInterval overrides DefaultFlushInterval for SyncAsync.
	FlushInterval time.Duration
	// SegmentBytes is the rotation threshold: an append that would grow
	// the active segment past it rotates to a fresh segment first (a
	// segment always holds at least one record, however large). Zero
	// means DefaultSegmentBytes; negative disables rotation.
	SegmentBytes int64
}

func (o Options) flushInterval() time.Duration {
	if o.FlushInterval > 0 {
		return o.FlushInterval
	}
	return DefaultFlushInterval
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes != 0 {
		return o.SegmentBytes
	}
	return DefaultSegmentBytes
}

// maxKeptFrame bounds the frame buffer a Log keeps between appends: one
// oversized record does not pin its size in memory for the log's life.
// The repository holds each document's commit scratch to the same bytes
// (scratchBytes, internal/repo/txn.go).
const maxKeptFrame = 64 << 10

// Log is an open write-ahead log positioned for appending to the
// highest-numbered segment of its set. Safe for concurrent use; record
// order is the order Append calls complete.
type Log struct {
	opts Options
	dir  string

	mu     sync.Mutex
	f      *os.File // the active (highest-index) segment
	active uint64   // index of the active segment
	size   int64    // bytes in the active segment
	total  int64    // bytes across every live segment, sealed ones included
	closed bool
	// frame is where Append builds each record's frame; guarded by mu.
	// Kept for the next append unless a record grew it past maxKeptFrame.
	frame []byte
	// err is sticky: once an fsync fails the log refuses further
	// appends, because an unsynced tail may or may not survive a crash.
	err error

	// Grouped-sync state: committers wait on the current epoch, the
	// flusher resolves it after one shared fsync.
	epoch  *flushEpoch
	wake   chan struct{}
	stop   chan struct{}
	doneWG sync.WaitGroup
}

// flushEpoch is one group-commit generation: every Append that wrote
// before the flusher's fsync shares its result.
type flushEpoch struct {
	ready chan struct{}
	err   error
}

// Create creates (or truncates) segment index in dir as a new log's
// active segment, writing and syncing the header and fsyncing the
// directory so the file survives a crash. The caller is responsible
// for making the segment the manifest's first live segment before
// relying on it.
func Create(dir string, index uint64, opts Options) (*Log, error) {
	f, err := createSegment(dir, index)
	if err != nil {
		return nil, err
	}
	return newLog(dir, f, index, int64(HeaderSize), int64(HeaderSize), opts), nil
}

// OpenAt opens the segment set a Replay examined for appending: the
// last live segment is truncated to the valid prefix length the
// replay reported (discarding any torn tail) and positioned for
// appending. A ValidSize below HeaderSize marks a crashed segment
// creation (the header never fully reached disk; no record can have
// landed): the segment is recreated with a fresh synced header
// instead of opened.
func OpenAt(dir string, info ReplayInfo, opts Options) (*Log, error) {
	if info.ValidSize < int64(HeaderSize) {
		f, err := createSegment(dir, info.Last)
		if err != nil {
			return nil, err
		}
		return newLog(dir, f, info.Last, int64(HeaderSize), info.LiveBytes+int64(HeaderSize), opts), nil
	}
	f, err := os.OpenFile(filepath.Join(dir, SegmentName(info.Last)), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(info.ValidSize); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(info.ValidSize, 0); err != nil {
		f.Close()
		return nil, err
	}
	return newLog(dir, f, info.Last, info.ValidSize, info.LiveBytes, opts), nil
}

// createSegment creates (or truncates) one segment file with a synced
// header, then fsyncs the directory: a segment must be durably linked
// before records land in it, or a crash could silently drop a synced
// suffix of the record stream.
func createSegment(dir string, index uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, SegmentName(index)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := append([]byte(Magic), Version)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory, making completed file creations in it
// durable (local twin of internal/store.SyncDir; wal stays store-free).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func newLog(dir string, f *os.File, active uint64, size, total int64, opts Options) *Log {
	l := &Log{opts: opts, dir: dir, f: f, active: active, size: size, total: total}
	switch opts.Policy {
	case SyncGrouped:
		l.epoch = &flushEpoch{ready: make(chan struct{})}
		l.wake = make(chan struct{}, 1)
		l.stop = make(chan struct{})
		l.doneWG.Add(1)
		go l.groupFlusher()
	case SyncAsync:
		l.stop = make(chan struct{})
		l.doneWG.Add(1)
		go l.asyncFlusher()
	}
	return l
}

// Append frames payload (length + CRC) and appends it to the active
// segment — rotating to a fresh segment first if the size policy says
// this append would overgrow it — honouring the log's sync policy: it
// returns once the record is durable under SyncPerCommit and
// SyncGrouped, or once it is written (not yet synced) under SyncAsync.
// payload stays the caller's: it is copied and not read after Append
// returns, so the caller may reuse it. The frame it is copied into is the
// log's — one buffer, built and written under the log's mutex and dead
// once the write returns, whatever the policy then waits for.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecordSize {
		return ErrTooLarge
	}
	var hdr [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))

	l.mu.Lock()
	// Above the early returns because lockheld reads their unlocks as
	// final; a closed or failed log copies nothing.
	frame := l.frame[:0]
	if !l.closed && l.err == nil {
		frame = append(append(frame, hdr[:]...), payload...)
	}
	if l.frame = frame; cap(frame) > maxKeptFrame {
		l.frame = nil
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if sb := l.opts.segmentBytes(); sb > 0 && l.size > int64(HeaderSize) && l.size+int64(len(frame)) > sb {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		l.err = err
		l.mu.Unlock()
		return err
	}
	l.size += int64(len(frame))
	l.total += int64(len(frame))

	switch l.opts.Policy {
	case SyncPerCommit:
		err := l.f.Sync()
		if err != nil {
			l.err = err
		}
		l.mu.Unlock()
		return err
	case SyncGrouped:
		e := l.epoch
		l.mu.Unlock()
		select {
		case l.wake <- struct{}{}:
		default:
		}
		<-e.ready
		return e.err
	default: // SyncAsync
		l.mu.Unlock()
		return nil
	}
}

// Rotate seals the active segment (fsync, close) and opens a fresh one
// with the next index, returning the new active index. Rotation is
// what bounds segment size — and, one level up, what lets a checkpoint
// retire history by whole files. Appends never split a record across
// segments; the size policy (Options.SegmentBytes) calls this
// automatically inside Append.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.active, nil
}

// rotateLocked seals the active segment and swaps in segment active+1.
// The old segment is fsynced BEFORE its successor exists, so replay's
// "only the last segment may be torn" rule is an invariant of the file
// set, not an assumption. Caller holds l.mu.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		// The unsynced tail may or may not survive: poison, exactly as
		// a failed policy fsync would.
		l.err = err
		return err
	}
	nf, err := createSegment(l.dir, l.active+1)
	if err != nil {
		// Nothing was lost and the active segment is intact: report the
		// error (the caller's append fails) without poisoning.
		return err
	}
	// Committers parked on the current grouped epoch wrote to the old
	// segment; the sync above made them durable, so resolve the epoch
	// now rather than leaving them to wait for a flush of the new file
	// that never covered them.
	if l.epoch != nil {
		old := l.epoch
		l.epoch = &flushEpoch{ready: make(chan struct{})}
		close(old.ready)
	}
	old := l.f
	l.f = nf
	l.active++
	l.size = int64(HeaderSize)
	l.total += int64(HeaderSize)
	_ = old.Close()
	return nil
}

// Sync forces an fsync of everything appended to the active segment
// (sealed segments were synced when they were sealed).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Size returns the active segment's current size (header plus frames).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// LiveBytes returns the total bytes across every live segment — sealed
// ones plus the active one. It is the recovery-cost signal size-
// triggered checkpoints watch.
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// ActiveIndex returns the index of the segment currently open for
// appending (the highest index of the set).
func (l *Log) ActiveIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active
}

// Close stops the flusher, syncs outstanding writes and closes the
// active segment. Further appends return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.closed = true
	l.mu.Unlock()

	if l.stop != nil {
		close(l.stop)
		l.doneWG.Wait()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.err == nil {
		err = l.f.Sync()
	}
	// Resolve any committers still parked on the last grouped epoch.
	if l.epoch != nil {
		l.epoch.err = err
		close(l.epoch.ready)
		l.epoch = nil
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// groupFlusher services SyncGrouped: each wake-up swaps the epoch and
// resolves the old one with the result of a single shared fsync. The
// fsync runs outside the log mutex, so committers keep writing (and
// accumulating into the next epoch) while the disk flush is in flight
// — that in-flight window is where grouping comes from.
func (l *Log) groupFlusher() {
	defer l.doneWG.Done()
	for {
		select {
		case <-l.stop:
			return
		case <-l.wake:
		}
		if w := l.opts.GroupWindow; w > 0 {
			timer := time.NewTimer(w)
			select {
			case <-l.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		old := l.epoch
		l.epoch = &flushEpoch{ready: make(chan struct{})}
		f := l.f
		l.mu.Unlock()
		err := f.Sync()
		if err != nil {
			l.mu.Lock()
			if l.f != f {
				// The segment was rotated away after the flusher captured
				// it; rotation synced it before sealing, so every byte the
				// epoch covers is durable and the failure (typically
				// "file already closed") is moot.
				err = nil
			} else if l.err == nil {
				l.err = err
			}
			l.mu.Unlock()
		}
		old.err = err
		close(old.ready)
	}
}

// asyncFlusher services SyncAsync: periodic fsyncs bound the loss
// window; a sync failure is recorded and poisons later appends.
func (l *Log) asyncFlusher() {
	defer l.doneWG.Done()
	ticker := time.NewTicker(l.opts.flushInterval())
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-ticker.C:
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return
			}
			f := l.f
			bad := l.err != nil
			l.mu.Unlock()
			if bad {
				continue
			}
			// Sync outside the mutex: appends proceed during the flush.
			if err := f.Sync(); err != nil {
				l.mu.Lock()
				// As in groupFlusher: a rotated-away segment was synced
				// at sealing, so only the still-active file can poison.
				if l.f == f && l.err == nil {
					l.err = err
				}
				l.mu.Unlock()
			}
		}
	}
}
