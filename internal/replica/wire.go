// Package replica implements WAL-shipping replication: a leader-side
// Shipper streams the durable repository's write-ahead log — a
// checkpoint bootstrap image first when the follower cannot resume,
// then sealed-segment backfill and the live record tail — over any
// net.Conn, and a Follower replays it continuously into its own
// follower-mode repository, serving lock-free MVCC snapshot reads with
// an explicit staleness bound (Position / Lag).
// docs/REPLICATION.md is the authoritative protocol specification; the
// golden constants below are pinned against it by the docs-check gate
// (docs_test.go).
//
// Wire format, in brief: every message is one CRC-framed unit —
//
//	[type:1][len:4 LE][crc:4 LE, CRC-32/IEEE of body][body]
//
// — so a flipped bit or torn write anywhere in transit is detected at
// the frame boundary and the connection is torn down; the follower
// then reconnects and resumes from its last durable position. The
// record stream itself ships raw WAL payloads (MsgRecord) plus one
// explicit MsgSegStart per leader segment boundary, which is what lets
// the follower re-frame records deterministically into segment files
// byte-identical to the leader's.
package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"xmldyn/internal/wal"
)

// Protocol golden constants (docs/REPLICATION.md §2).
const (
	// ProtoMagic opens every MsgHello body: a follower that is not
	// speaking this protocol is rejected at the handshake.
	ProtoMagic = "XREP"
	// ProtoVersion is the protocol version byte carried in MsgHello.
	// Version 5 addresses an op from the op before (version 4 by a path;
	// name slots since 4, packs since 3, the compact tree grammar since
	// 2); an older peer fails the handshake, not the stream.
	ProtoVersion = 5
	// FrameHeaderSize is the bytes preceding every message body: one
	// type byte, a uint32 LE body length, a uint32 LE CRC-32 (IEEE) of
	// the body.
	FrameHeaderSize = 9
	// MaxMessageSize bounds a frame's declared body length — matching
	// wal.MaxRecordSize, since WAL payloads and packs are the largest
	// bodies shipped. An implausible length is a framing error.
	MaxMessageSize = 1 << 30
)

// Message types (docs/REPLICATION.md §2). Hello and Ack flow follower
// to leader; everything else leader to follower.
const (
	// MsgHello is the handshake: magic, version and the follower's
	// durable resume position.
	MsgHello = 1
	// MsgSnapBegin announces a checkpoint bootstrap: generation, first
	// live WAL segment, and the count of older packs that follows.
	MsgSnapBegin = 2
	// MsgSnapFile carries one older pack the current one references:
	// file name, then raw bytes.
	MsgSnapFile = 3
	// MsgSnapEnd carries the current pack's raw bytes and commits the
	// bootstrap on the follower.
	MsgSnapEnd = 4
	// MsgSegStart announces a leader segment boundary: the follower
	// must rotate into exactly this index (active+1) or reject the
	// stream as non-contiguous.
	MsgSegStart = 5
	// MsgRecord carries one WAL record: the stream position just past
	// the record (16 bytes) followed by the raw payload. The follower
	// checks the position against its own append position before
	// applying, so a duplicated, reordered or skipped frame is detected
	// at the protocol layer rather than corrupting the replica.
	MsgRecord = 6
	// MsgHeartbeat carries the leader's append end position and the
	// session-relative stream byte total at that end — the follower's
	// staleness target.
	MsgHeartbeat = 7
	// MsgAck reports the follower's applied position back to the leader
	// (session bookkeeping and segment-pin advancement). Applied, not
	// synced: under a SyncAsync follower store the acked bytes may still
	// be in flight to its disk (docs/REPLICATION.md §3).
	MsgAck = 8
)

// Wire errors.
var (
	// ErrBadFrame reports a frame whose CRC does not match its body or
	// whose declared length is implausible — transport corruption; the
	// connection must be torn down and re-established.
	ErrBadFrame = errors.New("replica: corrupt wire frame")
	// ErrHandshake reports a MsgHello with the wrong magic, version or
	// shape.
	ErrHandshake = errors.New("replica: bad handshake")
)

// frameBytes is the stream's one buffer size: a frameWriter flushes once
// this many bytes are queued, both ends read the connection through a
// bufio.Reader of this size, a body is read in steps of at most this
// many bytes, and a buffer a frame grew past it goes when the frame is
// done — the wire's counterpart of wal.maxKeptFrame and
// repo.scratchBytes.
const frameBytes = 64 << 10

// frameWriter builds CRC-framed messages in place and queues them for
// one connection: begin opens a frame in the queue, the message's
// append function writes the body behind it, end seals it, and flush
// sends everything queued in a single Write. Not safe for concurrent
// use; each session has exactly one writing goroutine per direction.
type frameWriter struct {
	w     io.Writer
	buf   []byte // queued frames, the last one possibly still open
	start int    // offset in buf of the frame begin opened last
}

// begin opens a frame of type typ at the end of the queue and returns
// the queue for the body to be appended to.
func (fw *frameWriter) begin(typ byte) []byte {
	fw.start = len(fw.buf)
	return append(fw.buf, typ, 0, 0, 0, 0, 0, 0, 0, 0)
}

// end seals the frame begin opened, given the queue with its body
// appended: the header's length and CRC are filled in where they lie.
func (fw *frameWriter) end(buf []byte) {
	hdr, body := buf[fw.start:], buf[fw.start+FrameHeaderSize:]
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(body))
	fw.buf = buf
}

// flush sends the queued frames in a single Write call — whole frames
// only, matching the WAL appender's torn-write discipline — and empties
// the queue. Nothing queued is no Write.
func (fw *frameWriter) flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	if fw.buf = fw.buf[:0]; cap(fw.buf) > 2*frameBytes {
		fw.buf = nil // a full queue is frameBytes and a frame; past that a frame was oversized
	}
	return err
}

// flushFull flushes once frameBytes are queued: a backfill leaves in
// writes of about that size rather than one a frame.
func (fw *frameWriter) flushFull() error {
	if len(fw.buf) < frameBytes {
		return nil
	}
	return fw.flush()
}

// frameReader reads CRC-framed messages from one connection. The
// returned body is valid until the next call (the buffer is reused).
type frameReader struct {
	r    *bufio.Reader
	hdr  [FrameHeaderSize]byte // here, not in next: it would escape through the Read
	body []byte
}

// next reads one frame, verifying length plausibility and body CRC. A
// header's length is believed only as far as bytes arrive: the body
// grows a step at a time, so a flipped length bit reserves no more than
// a step past what the connection delivers.
func (fr *frameReader) next() (byte, []byte, error) {
	if cap(fr.body) > frameBytes {
		fr.body = nil
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(fr.hdr[1:5])
	if length > MaxMessageSize {
		return 0, nil, fmt.Errorf("%w: frame claims %d bytes", ErrBadFrame, length)
	}
	body := fr.body[:0]
	for len(body) < int(length) {
		step := min(int(length)-len(body), frameBytes)
		body = slices.Grow(body, step)[:len(body)+step]
		if _, err := io.ReadFull(fr.r, body[len(body)-step:]); err != nil {
			return 0, nil, err
		}
	}
	fr.body = body
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(fr.hdr[5:9]) {
		return 0, nil, fmt.Errorf("%w: crc mismatch on type %d", ErrBadFrame, fr.hdr[0])
	}
	return fr.hdr[0], body, nil
}

// --- message bodies ----------------------------------------------------------

// appendPosition encodes a position as two uint64 LE values.
func appendPosition(out []byte, pos wal.Position) []byte {
	out = binary.LittleEndian.AppendUint64(out, pos.Segment)
	out = binary.LittleEndian.AppendUint64(out, uint64(pos.Offset))
	return out
}

// cutPosition decodes a position encoded by appendPosition.
func cutPosition(body []byte) (wal.Position, []byte, error) {
	if len(body) < 16 {
		return wal.Position{}, nil, fmt.Errorf("%w: short position", ErrBadFrame)
	}
	pos := wal.Position{
		Segment: binary.LittleEndian.Uint64(body[0:8]),
		Offset:  int64(binary.LittleEndian.Uint64(body[8:16])),
	}
	return pos, body[16:], nil
}

// appendHello encodes the handshake: magic, version, resume position.
func appendHello(out []byte, pos wal.Position) []byte {
	out = append(out, ProtoMagic...)
	out = append(out, ProtoVersion)
	return appendPosition(out, pos)
}

// parseHello validates and decodes a MsgHello body.
func parseHello(body []byte) (wal.Position, error) {
	if len(body) != len(ProtoMagic)+1+16 {
		return wal.Position{}, fmt.Errorf("%w: hello is %d bytes", ErrHandshake, len(body))
	}
	if string(body[:len(ProtoMagic)]) != ProtoMagic {
		return wal.Position{}, fmt.Errorf("%w: magic %q", ErrHandshake, body[:len(ProtoMagic)])
	}
	if body[len(ProtoMagic)] != ProtoVersion {
		return wal.Position{}, fmt.Errorf("%w: version %d", ErrHandshake, body[len(ProtoMagic)])
	}
	pos, _, err := cutPosition(body[len(ProtoMagic)+1:])
	return pos, err
}

// appendSnapBegin encodes a MsgSnapBegin: generation, first live
// segment, older-pack count.
func appendSnapBegin(out []byte, gen, walFirst uint64, files int) []byte {
	out = binary.LittleEndian.AppendUint64(out, gen)
	out = binary.LittleEndian.AppendUint64(out, walFirst)
	return binary.LittleEndian.AppendUint32(out, uint32(files))
}

// parseSnapBegin decodes a MsgSnapBegin body.
func parseSnapBegin(body []byte) (gen, walFirst uint64, files int, err error) {
	if len(body) != 20 {
		return 0, 0, 0, fmt.Errorf("%w: snap-begin is %d bytes", ErrBadFrame, len(body))
	}
	return binary.LittleEndian.Uint64(body[0:8]),
		binary.LittleEndian.Uint64(body[8:16]),
		int(binary.LittleEndian.Uint32(body[16:20])), nil
}

// appendSnapFile encodes a MsgSnapFile: 2-byte name length, name, data.
func appendSnapFile(out []byte, name string, data []byte) []byte {
	out = binary.LittleEndian.AppendUint16(out, uint16(len(name)))
	out = append(out, name...)
	return append(out, data...)
}

// parseSnapFile decodes a MsgSnapFile body. The data slice aliases the
// frame buffer; the caller copies what it keeps.
func parseSnapFile(body []byte) (name string, data []byte, err error) {
	if len(body) < 2 {
		return "", nil, fmt.Errorf("%w: short snap-file", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint16(body[0:2]))
	if len(body) < 2+n {
		return "", nil, fmt.Errorf("%w: snap-file name overruns body", ErrBadFrame)
	}
	return string(body[2 : 2+n]), body[2+n:], nil
}

// appendHeartbeat encodes a MsgHeartbeat: leader end position plus the
// session stream byte total at that end.
func appendHeartbeat(out []byte, end wal.Position, sessionBytes uint64) []byte {
	return binary.LittleEndian.AppendUint64(appendPosition(out, end), sessionBytes)
}

// parseHeartbeat decodes a MsgHeartbeat body.
func parseHeartbeat(body []byte) (end wal.Position, sessionBytes uint64, err error) {
	end, rest, err := cutPosition(body)
	if err != nil {
		return wal.Position{}, 0, err
	}
	if len(rest) != 8 {
		return wal.Position{}, 0, fmt.Errorf("%w: heartbeat tail is %d bytes", ErrBadFrame, len(rest))
	}
	return end, binary.LittleEndian.Uint64(rest), nil
}

// appendRecord encodes a MsgRecord: the position just past the record,
// then the raw WAL payload.
func appendRecord(out []byte, after wal.Position, payload []byte) []byte {
	return append(appendPosition(out, after), payload...)
}

// parseRecord decodes a MsgRecord body. The payload aliases the frame
// buffer; it must be consumed before the next read.
func parseRecord(body []byte) (after wal.Position, payload []byte, err error) {
	after, payload, err = cutPosition(body)
	return after, payload, err
}

// appendSegStart encodes a MsgSegStart: the new segment's index.
func appendSegStart(out []byte, index uint64) []byte {
	return binary.LittleEndian.AppendUint64(out, index)
}

// parseSegStart decodes a MsgSegStart body.
func parseSegStart(body []byte) (uint64, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("%w: seg-start is %d bytes", ErrBadFrame, len(body))
	}
	return binary.LittleEndian.Uint64(body), nil
}

// appendAck encodes a MsgAck: the follower's applied position — what
// it has replayed and appended to its own log, synced or not.
func appendAck(out []byte, pos wal.Position) []byte {
	return appendPosition(out, pos)
}

// parseAck decodes a MsgAck body.
func parseAck(body []byte) (wal.Position, error) {
	pos, rest, err := cutPosition(body)
	if err != nil {
		return wal.Position{}, err
	}
	if len(rest) != 0 {
		return wal.Position{}, fmt.Errorf("%w: ack has %d trailing bytes", ErrBadFrame, len(rest))
	}
	return pos, nil
}
