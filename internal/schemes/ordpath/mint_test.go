package ordpath

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"xmldyn/internal/labels"
)

// TestForeignCodesRejected: *Code is the one boxed form of an ORDPATH
// code. A Code value is refused like a foreign code — ErrBadCode, no
// panic — so a call site that boxes one fails instead of passing.
func TestForeignCodesRejected(t *testing.T) {
	a := NewAlgebra()
	one, err := a.Between(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	value, _ := NewCode(3)
	for _, pair := range [][2]labels.Code{
		{value, nil}, {nil, value}, {one, value},
		{labels.QString("2"), nil}, {nil, labels.IntCode{V: 3, Width: 8}},
	} {
		if got, err := a.Between(pair[0], pair[1]); !errors.Is(err, labels.ErrBadCode) || got != nil {
			t.Errorf("Between(%#v, %#v) = %v, %v; want ErrBadCode", pair[0], pair[1], got, err)
		}
	}
}

// TestChunksBounded pins what an Algebra's chunks hold: headers 4
// doubling to 16, components 8 doubling to 48, so that however the codes
// grow a live code keeps at most 768 B of chunks reachable, and a code
// of more than 12 components is a slice of its own.
func TestChunksBounded(t *testing.T) {
	a := NewAlgebra()
	var heads, comps []int // each new chunk's capacity
	own := 0
	l, r := labels.Code(nil), labels.Code(nil)
	for i := 0; i < 2000; i++ {
		m, err := a.Between(l, r)
		if errors.Is(err, labels.ErrOverflow) {
			l, r = nil, nil // a new run from the open ends
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		c := m.(*Code)
		if len(a.heads) == 1 {
			heads = append(heads, cap(a.heads))
		}
		switch last := &c.comps[len(c.comps)-1]; {
		case last != &a.comps[len(a.comps)-1]:
			if len(c.comps) <= compsMax/4 {
				t.Fatalf("a %d-component code is a slice of its own", len(c.comps))
			}
			own++
		case len(a.comps) == len(c.comps):
			comps = append(comps, cap(a.comps))
		}
		if reach := cap(a.heads)*int(reflect.TypeFor[Code]().Size()) + 8*cap(a.comps); reach > 768 {
			t.Fatalf("step %d: chunks of %d headers and %d components keep %d B reachable", i, cap(a.heads), cap(a.comps), reach)
		}
		// Alternate the side the new code bounds, so the caret chain
		// deepens until the budget refuses it.
		if i%2 == 0 {
			r = m
		} else {
			l = m
		}
	}
	if !slices.Equal(heads[:3], []int{4, 8, 16}) || slices.Max(heads) != headsMax {
		t.Fatalf("header chunks %v: want 4 doubling to %d", heads, headsMax)
	}
	if !slices.Equal(comps[:4], []int{8, 16, 32, 48}) || slices.Max(comps) != compsMax {
		t.Fatalf("component chunks %v: want 8 doubling to %d", comps, compsMax)
	}
	if own == 0 {
		t.Fatal("no code of more than 12 components was a slice of its own")
	}
}

// FuzzBetween holds the minted codes to their value form: the input
// spells a run of insertions into one ordered sequence of codes — a
// byte's low bits pick the gap, its top bit asks for the pair reversed —
// and each result must be what spell writes into fresh memory, refusals
// included, while every code handed out so far must still read as it
// did. The corpus is testdata/fuzz/FuzzBetween.
func FuzzBetween(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x80, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 1024 {
			steps = steps[:1024]
		}
		a, oracle := NewAlgebra(), NewAlgebra()
		var seq []*Code // in order
		var want []string
		for i, b := range steps {
			k := int(b&0x7f) % (len(seq) + 1)
			var l, r labels.Code // nil: an open end
			var lv, rv Code
			if k > 0 {
				l, lv = seq[k-1], *seq[k-1]
			}
			if k < len(seq) {
				r, rv = seq[k], *seq[k]
			}
			if b&0x80 != 0 {
				l, r, lv, rv = r, l, rv, lv
			}
			got, err := a.Between(l, r)
			w, werr := oracle.spell(nil, lv, rv)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("step %d: Between(%v, %v) = %v, value form: %v", i, lv, rv, err, werr)
			}
			if err != nil {
				if got != nil {
					t.Fatalf("step %d: a refused Between handed out %v", i, got)
				}
				continue
			}
			c := got.(*Code)
			if !slices.Equal(c.comps, w) {
				t.Fatalf("step %d: Between(%v, %v) = %v, value form %v", i, lv, rv, c, w)
			}
			seq = slices.Insert(seq, k, c)
			want = slices.Insert(want, k, Code{comps: w}.String())
			for j := range seq {
				if seq[j].String() != want[j] {
					t.Fatalf("step %d: code %d reads %v, was handed out as %s", i, j, seq[j], want[j])
				}
			}
		}
	})
}
