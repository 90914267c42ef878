package ordpath

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"xmldyn/internal/labels"
)

func TestBinaryRoundTrip(t *testing.T) {
	cases := [][]int64{
		{1}, {3}, {-1}, {199}, {2, 1}, {2, -3}, {0, 1}, {2, 2, 1}, {-4, 1},
		{1<<20 + 1}, {-(1 << 20) + 1},
	}
	for _, comps := range cases {
		c, err := NewCode(comps...)
		if err != nil {
			t.Fatalf("%v: %v", comps, err)
		}
		data, err := EncodeBinary(c)
		if err != nil {
			t.Fatalf("%v: %v", comps, err)
		}
		got, n, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%v: %v", comps, err)
		}
		if n != len(data) {
			t.Errorf("%v: consumed %d of %d", comps, n, len(data))
		}
		if got.String() != c.String() {
			t.Errorf("round trip: %s -> %s", c, got)
		}
	}
}

// TestBinaryRoundTripAfterStorm round-trips every code produced by an
// insertion storm.
func TestBinaryRoundTripAfterStorm(t *testing.T) {
	a := NewAlgebra()
	cs, err := a.Assign(4)
	if err != nil {
		t.Fatal(err)
	}
	codes := cs
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		k := rng.Intn(len(codes) + 1)
		var l, r labels.Code
		if k > 0 {
			l = codes[k-1]
		}
		if k < len(codes) {
			r = codes[k]
		}
		m, err := a.Between(l, r)
		if err != nil {
			continue // overflow budget: fine
		}
		codes = append(codes, nil)
		copy(codes[k+1:], codes[k:])
		codes[k] = m
	}
	for _, c := range codes {
		oc := *c.(*Code)
		data, err := EncodeBinary(oc)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%s: %v", oc, err)
		}
		if got.String() != oc.String() {
			t.Fatalf("%s -> %s", oc, got)
		}
		// The size model agrees with the real encoding (modulo the
		// LEB128 length frame and byte padding).
		if 8*len(data) < oc.Bits() {
			t.Fatalf("%s: model %d bits > encoded %d bits", oc, oc.Bits(), 8*len(data))
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	valid, err := EncodeBinary(Code{comps: []int64{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{
		nil,
		{0xFF},               // truncated LEB128
		{40},                 // claims 40 bits, no payload
		valid[:len(valid)-1], // truncated payload
	} {
		if _, _, err := DecodeBinary(data); !errors.Is(err, labels.ErrBadCode) {
			t.Errorf("%v: %v", data, err)
		}
	}
}

func TestBinaryQuickRoundTrip(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		comps := make([]int64, len(raw))
		for i, v := range raw[:len(raw)-1] {
			comps[i] = int64(v) &^ 1 // evens for carets
		}
		last := int64(raw[len(raw)-1]) | 1 // odd terminal
		comps[len(comps)-1] = last
		c, err := NewCode(comps...)
		if err != nil {
			return false
		}
		data, err := EncodeBinary(c)
		if err != nil {
			return false
		}
		got, _, err := DecodeBinary(data)
		return err == nil && got.String() == c.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
