package labels

import "fmt"

// UTF-8-style variable-length integer codec, as used by the vector
// labelling scheme [27] to store vector components without a fixed-width
// field. The paper (§4) questions the approach: "given that the largest
// integer that may be encoded with a single UTF-8 4-byte instance is
// 2^21, it is unclear how the vector labelling scheme uses UTF-8 to
// process delimiters for larger integer values". We reproduce exactly
// that ceiling so the critique is measurable: EncodeUTF8Style fails with
// ErrOverflow for values >= 2^21.

// MaxUTF8Value is the largest value encodable by the UTF-8-style codec
// (2^21 - 1), matching the paper's §4 analysis of a 4-byte UTF-8 unit.
const MaxUTF8Value = 1<<21 - 1

// EncodeUTF8Style encodes v in 1-4 bytes using UTF-8-like framing:
// 0xxxxxxx, 110xxxxx 10xxxxxx, 1110xxxx 10xxxxxx 10xxxxxx, or
// 11110xxx 10xxxxxx 10xxxxxx 10xxxxxx.
func EncodeUTF8Style(v uint32) ([]byte, error) {
	switch {
	case v < 1<<7:
		return []byte{byte(v)}, nil
	case v < 1<<11:
		return []byte{0xC0 | byte(v>>6), 0x80 | byte(v&0x3F)}, nil
	case v < 1<<16:
		return []byte{0xE0 | byte(v>>12), 0x80 | byte(v>>6&0x3F), 0x80 | byte(v&0x3F)}, nil
	case v <= MaxUTF8Value:
		return []byte{
			0xF0 | byte(v>>18), 0x80 | byte(v>>12&0x3F),
			0x80 | byte(v>>6&0x3F), 0x80 | byte(v&0x3F),
		}, nil
	default:
		return nil, fmt.Errorf("%w: value %d exceeds UTF-8-style limit %d (paper §4)", ErrOverflow, v, MaxUTF8Value)
	}
}

// DecodeUTF8Style decodes one value and returns it with the number of
// bytes consumed.
func DecodeUTF8Style(b []byte) (uint32, int, error) {
	if len(b) == 0 {
		return 0, 0, fmt.Errorf("%w: empty varint", ErrBadCode)
	}
	b0 := b[0]
	var n int
	var v uint32
	switch {
	case b0&0x80 == 0:
		return uint32(b0), 1, nil
	case b0&0xE0 == 0xC0:
		n, v = 2, uint32(b0&0x1F)
	case b0&0xF0 == 0xE0:
		n, v = 3, uint32(b0&0x0F)
	case b0&0xF8 == 0xF0:
		n, v = 4, uint32(b0&0x07)
	default:
		return 0, 0, fmt.Errorf("%w: invalid varint lead byte %#x", ErrBadCode, b0)
	}
	if len(b) < n {
		return 0, 0, fmt.Errorf("%w: truncated varint", ErrBadCode)
	}
	for i := 1; i < n; i++ {
		if b[i]&0xC0 != 0x80 {
			return 0, 0, fmt.Errorf("%w: invalid continuation byte %#x", ErrBadCode, b[i])
		}
		v = v<<6 | uint32(b[i]&0x3F)
	}
	return v, n, nil
}

// UTF8StyleBits returns the storage cost of v in bits under the
// UTF-8-style codec, or an error past the 2^21 ceiling.
func UTF8StyleBits(v uint32) (int, error) {
	b, err := EncodeUTF8Style(v)
	if err != nil {
		return 0, err
	}
	return len(b) * 8, nil
}

// AppendLEB128 appends v as an unbounded little-endian base-128 varint:
// the size-unlimited integer encoding of the store snapshots, the
// checkpoint pack, WAL record payloads and the batched-op codec
// (docs/DURABILITY.md §2), and of measuring how a corrected vector codec
// would behave once the UTF-8 ceiling is hit. It is the one writer;
// appending in place is what keeps an encoder at one allocation per
// output buffer instead of one per integer.
func AppendLEB128(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// EncodeLEB128 returns v's varint in a fresh slice. Library code appends
// with AppendLEB128; this form is kept for the repository benchmark's
// record builder (bench/records.go).
func EncodeLEB128(v uint64) []byte { return AppendLEB128(nil, v) }

// LEB128Len returns the number of bytes AppendLEB128 writes for v.
func LEB128Len(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeLEB128 decodes one LEB128 value, returning it and the bytes
// consumed. A tenth byte may carry only bit 63: anything above it (or a
// continuation past it) does not fit 64 bits and is rejected, as
// encoding/binary.Uvarint does, instead of being silently dropped. A
// value spelt longer than AppendLEB128 writes it — a final zero byte
// after the first — is rejected too, so every decoder built on this one
// accepts a single spelling of each value and what it accepts
// re-encodes to the same bytes.
func DecodeLEB128(b []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i, x := range b {
		if shift == 63 && x > 1 {
			return 0, 0, fmt.Errorf("%w: LEB128 overflow", ErrBadCode)
		}
		v |= uint64(x&0x7F) << shift
		if x&0x80 == 0 {
			if x == 0 && i > 0 {
				return 0, 0, fmt.Errorf("%w: LEB128 spelt long", ErrBadCode)
			}
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, fmt.Errorf("%w: truncated LEB128", ErrBadCode)
}

// AppendString appends a length-prefixed string: LEB128 byte length,
// then the raw bytes. It is the shared wire convention of the store
// snapshots, the checkpoint pack, WAL record payloads and the
// batched-op codec (docs/DURABILITY.md §2).
func AppendString(out []byte, s string) []byte {
	return append(AppendLEB128(out, uint64(len(s))), s...)
}

// CutString decodes one length-prefixed string starting at data[pos],
// returning the string and the offset just past it.
func CutString(data []byte, pos int) (string, int, error) {
	if pos >= len(data) {
		return "", 0, fmt.Errorf("%w: truncated string length", ErrBadCode)
	}
	l, n, err := DecodeLEB128(data[pos:])
	if err != nil {
		return "", 0, err
	}
	pos += n
	if l > uint64(len(data)-pos) {
		return "", 0, fmt.Errorf("%w: string of %d bytes exceeds buffer", ErrBadCode, l)
	}
	return string(data[pos : pos+int(l)]), pos + int(l), nil
}
