package labels

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestUTF8StyleSizes(t *testing.T) {
	sizes := []struct {
		v    uint32
		want int
	}{
		{0, 1}, {127, 1}, {128, 2}, {2047, 2}, {2048, 3}, {65535, 3}, {65536, 4}, {MaxUTF8Value, 4},
	}
	for _, s := range sizes {
		bits, err := UTF8StyleBits(s.v)
		if err != nil {
			t.Fatal(err)
		}
		if bits != 8*s.want {
			t.Errorf("%d: %d bytes, want %d", s.v, bits/8, s.want)
		}
	}
}

// TestUTF8StyleCeiling reproduces the paper's §4 critique: the codec
// fails past 2^21 - 1.
func TestUTF8StyleCeiling(t *testing.T) {
	if _, err := UTF8StyleBits(MaxUTF8Value + 1); !errors.Is(err, ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
	if _, err := UTF8StyleBits(1 << 22); !errors.Is(err, ErrOverflow) {
		t.Fatalf("bits past ceiling: %v", err)
	}
	if bits, err := UTF8StyleBits(100); err != nil || bits != 8 {
		t.Fatalf("bits(100) = %d, %v", bits, err)
	}
}

func TestLEB128RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		enc := AppendLEB128(nil, v)
		got, n, err := DecodeLEB128(enc)
		return err == nil && got == v && n == len(enc) && n == LEB128Len(v) &&
			bytes.Equal(enc, binary.AppendUvarint(nil, v)) && bytes.Equal(enc, EncodeLEB128(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, 0x7F, 0x80, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		if !f(v) {
			t.Errorf("edge value %#x does not round-trip", v)
		}
	}
	// Appending leaves what is already in the buffer alone.
	if got := AppendLEB128([]byte("ab"), 300); !bytes.Equal(got, []byte{'a', 'b', 0xAC, 0x02}) {
		t.Errorf("append after a prefix: %x", got)
	}
	// LEB128 has no ceiling: values past the UTF-8 limit encode fine.
	big := uint64(1) << 40
	got, _, err := DecodeLEB128(EncodeLEB128(big))
	if err != nil || got != big {
		t.Fatalf("big value: %d, %v", got, err)
	}
}

func TestLEB128Errors(t *testing.T) {
	if _, _, err := DecodeLEB128(nil); !errors.Is(err, ErrBadCode) {
		t.Errorf("empty: %v", err)
	}
	if _, _, err := DecodeLEB128([]byte{0x80, 0x80}); !errors.Is(err, ErrBadCode) {
		t.Errorf("truncated: %v", err)
	}
	// 1 and 0 spelt longer than AppendLEB128 writes them.
	for _, in := range [][]byte{{0x81, 0x00}, {0x80, 0x80, 0x00}} {
		if v, n, err := DecodeLEB128(in); !errors.Is(err, ErrBadCode) {
			t.Errorf("%x: decoded to %d (%d bytes), err %v; want ErrBadCode", in, v, n, err)
		}
	}
}

// FuzzDecodeLEB128: a value is accepted in one spelling only, the one
// AppendLEB128 writes, so the bytes an accepted decode consumes are that
// spelling.
func FuzzDecodeLEB128(f *testing.F) {
	for _, in := range [][]byte{{0}, {0x7F}, {0x80, 0x01}, {0x81, 0x00}, {0x80, 0x80, 0x00}, append(bytes.Repeat([]byte{0xFF}, 9), 0x01)} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		v, n, err := DecodeLEB128(in)
		if err != nil {
			if !errors.Is(err, ErrBadCode) {
				t.Fatalf("%x: %v, want ErrBadCode", in, err)
			}
			return
		}
		if want := AppendLEB128(nil, v); !bytes.Equal(in[:n], want) {
			t.Fatalf("%x: accepted %x as %d, which is spelt %x", in, in[:n], v, want)
		}
	})
}

// A tenth byte holds bit 63 and nothing else: what does not fit 64 bits
// is an error, as for encoding/binary.Uvarint, not a value with its top
// bits dropped (FF×9 7F used to decode to MaxUint64).
func TestLEB128RejectsOverflow(t *testing.T) {
	nine := bytes.Repeat([]byte{0xFF}, 9)
	for _, tenth := range [][]byte{{0x7F}, {0x02}, {0x03}, {0x80, 0x00}, {0x81, 0x00}} {
		in := append(bytes.Clone(nine), tenth...)
		if _, n := binary.Uvarint(in); n >= 0 {
			t.Fatalf("%x: encoding/binary accepts it (n=%d); not an overflow case", in, n)
		}
		if v, n, err := DecodeLEB128(in); !errors.Is(err, ErrBadCode) {
			t.Errorf("%x: decoded to %#x (%d bytes), err %v; want ErrBadCode", in, v, n, err)
		}
	}
	in := append(bytes.Clone(nine), 0x01, 0xEE)
	if v, n, err := DecodeLEB128(in); err != nil || v != math.MaxUint64 || n != 10 {
		t.Errorf("MaxUint64: got %#x, %d bytes, %v", v, n, err)
	}
}

func TestRepOrderStrings(t *testing.T) {
	if RepFixed.String() != "Fixed" || RepVariable.String() != "Variable" {
		t.Fatal("Rep strings")
	}
	if OrderGlobal.String() != "Global" || OrderLocal.String() != "Local" || OrderHybrid.String() != "Hybrid" {
		t.Fatal("Order strings")
	}
}
