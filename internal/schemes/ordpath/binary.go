package ordpath

import (
	"fmt"
	"math/bits"

	"xmldyn/internal/labels"
)

// Binary codec for ORDPATH codes: the compressed representation the
// paper's §3.1.2 mentions ("ORDPATH labels are not stored as
// dotted-decimal strings but rather in compressed binary representation
// to enable efficient XPath evaluations"). Each component is a 3-bit
// bucket selector followed by the zigzagged value in the bucket's
// payload width; a code is the concatenation of its components, padded
// to a byte boundary, preceded by a LEB128 bit count.

// EncodeBinary packs a code into bytes.
func EncodeBinary(c Code) ([]byte, error) {
	var bitsBuf []byte // one byte per bit
	for _, v := range c.comps {
		z := uint64(v<<1) ^ uint64(v>>63)
		s := bits.Len64(z)
		if s == 0 {
			s = 1
		}
		bucket := -1
		for i, w := range payloadWidths {
			if s <= w {
				bucket = i
				break
			}
		}
		if bucket < 0 {
			return nil, fmt.Errorf("%w: component %d exceeds the largest bucket", labels.ErrOverflow, v)
		}
		for i := prefixBits - 1; i >= 0; i-- {
			bitsBuf = append(bitsBuf, byte(bucket>>i&1))
		}
		w := payloadWidths[bucket]
		for i := w - 1; i >= 0; i-- {
			bitsBuf = append(bitsBuf, byte(z>>i&1))
		}
	}
	out := labels.AppendLEB128(nil, uint64(len(bitsBuf)))
	var cur byte
	for i, b := range bitsBuf {
		cur = cur<<1 | b
		if i%8 == 7 {
			out = append(out, cur)
			cur = 0
		}
	}
	if rem := len(bitsBuf) % 8; rem != 0 {
		out = append(out, cur<<(8-rem))
	}
	return out, nil
}

// DecodeBinary unpacks a code produced by EncodeBinary, returning the
// code and the number of bytes consumed.
func DecodeBinary(data []byte) (Code, int, error) {
	total, n, err := labels.DecodeLEB128(data)
	if err != nil {
		return Code{}, 0, fmt.Errorf("%w: ORDPATH bit count: %v", labels.ErrBadCode, err)
	}
	payload := data[n:]
	if total > uint64(len(payload))*8 {
		return Code{}, 0, fmt.Errorf("%w: truncated ORDPATH code", labels.ErrBadCode)
	}
	bitAt := func(i uint64) uint64 {
		return uint64(payload[i/8] >> (7 - i%8) & 1)
	}
	var comps []int64
	var pos uint64
	for pos < total {
		if pos+prefixBits > total {
			return Code{}, 0, fmt.Errorf("%w: dangling ORDPATH prefix", labels.ErrBadCode)
		}
		bucket := 0
		for i := 0; i < prefixBits; i++ {
			bucket = bucket<<1 | int(bitAt(pos))
			pos++
		}
		w := payloadWidths[bucket]
		if pos+uint64(w) > total {
			return Code{}, 0, fmt.Errorf("%w: truncated ORDPATH payload", labels.ErrBadCode)
		}
		var z uint64
		for i := 0; i < w; i++ {
			z = z<<1 | bitAt(pos)
			pos++
		}
		v := int64(z>>1) ^ -int64(z&1)
		comps = append(comps, v)
	}
	code, err := NewCode(comps...)
	if err != nil {
		return Code{}, 0, err
	}
	consumed := n + int((total+7)/8)
	return code, consumed, nil
}
