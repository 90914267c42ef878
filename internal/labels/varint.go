package labels

import "fmt"

// UTF-8-style variable-length integer codec, as used by the vector
// labelling scheme [27] to store vector components without a fixed-width
// field. The paper (§4) questions the approach: "given that the largest
// integer that may be encoded with a single UTF-8 4-byte instance is
// 2^21, it is unclear how the vector labelling scheme uses UTF-8 to
// process delimiters for larger integer values". We reproduce exactly
// that ceiling so the critique is measurable: UTF8StyleBits fails with
// ErrOverflow for values >= 2^21.

// MaxUTF8Value is the largest value encodable by the UTF-8-style codec
// (2^21 - 1), matching the paper's §4 analysis of a 4-byte UTF-8 unit.
const MaxUTF8Value = 1<<21 - 1

// UTF8StyleBits returns the storage cost of v in bits under UTF-8-like
// framing (0xxxxxxx, 110xxxxx 10xxxxxx, 1110xxxx 10xxxxxx 10xxxxxx, or
// 11110xxx 10xxxxxx 10xxxxxx 10xxxxxx), or an error past the 2^21
// ceiling.
func UTF8StyleBits(v uint32) (int, error) {
	switch {
	case v < 1<<7:
		return 8, nil
	case v < 1<<11:
		return 16, nil
	case v < 1<<16:
		return 24, nil
	case v <= MaxUTF8Value:
		return 32, nil
	}
	return 0, fmt.Errorf("%w: value %d exceeds UTF-8-style limit %d (paper §4)", ErrOverflow, v, MaxUTF8Value)
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
