package labels

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestIntAlgebraConfigValidation(t *testing.T) {
	bad := []IntAlgebraConfig{
		{Name: "w1", Start: 1, Gap: 1, Width: 1},
		{Name: "w63", Start: 1, Gap: 1, Width: 63},
		{Name: "g0", Start: 1, Gap: 0, Width: 32},
		{Name: "neg", Start: -1, Gap: 1, Width: 32},
		{Name: "floor", Start: 1, Gap: 1, Width: 32, Floor: 5},
	}
	for _, cfg := range bad {
		if _, err := NewIntAlgebra(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIntAlgebra should panic")
		}
	}()
	MustIntAlgebra(IntAlgebraConfig{Name: "bad", Width: 0})
}

func TestIntAlgebraAssign(t *testing.T) {
	a := MustIntAlgebra(IntAlgebraConfig{Name: "t", Start: 10, Gap: 5, Width: 16})
	cs, err := a.Assign(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 15, 20, 25}
	for i, c := range cs {
		if c.(IntCode).V != want[i] {
			t.Errorf("code %d = %v, want %d", i, c, want[i])
		}
		if c.Bits() != 16 {
			t.Errorf("code bits = %d", c.Bits())
		}
	}
	if cs2, err := a.Assign(0); err != nil || cs2 != nil {
		t.Errorf("Assign(0): %v %v", cs2, err)
	}
	// Width exhaustion.
	if _, err := a.Assign(70000); !errors.Is(err, ErrOverflow) {
		t.Errorf("bulk overflow: %v", err)
	}
	if a.Counters().OverflowHits == 0 {
		t.Error("overflow not counted")
	}
}

// TestIntAlgebraAssignShares: bulk codes are boxed once per algebra and
// every Assign returns a view of that one list, so a relabel of k
// siblings allocates neither k codes nor a copy of them: len == cap ==
// n, two Assign(n) share a backing array, and an append on a view
// leaves the list intact.
func TestIntAlgebraAssignShares(t *testing.T) {
	a := MustIntAlgebra(IntAlgebraConfig{Name: "t", Start: 1, Gap: 3, Width: 32})
	first, err := a.Assign(1000)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = a.Assign(1000) }); allocs != 0 {
		t.Errorf("Assign(1000) allocates %.0f times, want 0", allocs)
	}
	if again, _ := a.Assign(1000); &again[0] != &first[0] {
		t.Error("two Assign(1000) do not share a backing array")
	}
	if len(first) != 1000 || cap(first) != 1000 {
		t.Fatalf("Assign(1000): len %d, cap %d", len(first), cap(first))
	}
	_ = append(first, IntCode{V: -1, Width: 32}) // copies: the list's 1001st code is not this
	for _, n := range []int{1, 7, 1000, 1500} {
		cs, err := a.Assign(n)
		if err != nil || len(cs) != n || cap(cs) != n {
			t.Fatalf("Assign(%d): %d codes, cap %d, %v", n, len(cs), cap(cs), err)
		}
		for i, c := range cs {
			if want := (IntCode{V: 1 + 3*int64(i), Width: 32}); c != Code(want) {
				t.Fatalf("Assign(%d)[%d] = %v, want %v", n, i, c, want)
			}
		}
	}
	if got := a.Counters().Assigns; got != 27 {
		t.Errorf("Assigns = %d, want one per call = 27", got)
	}
	if n, err := VerifyBulks(a); n < 1500 || err != nil {
		t.Errorf("%d kept codes recomputed, %v", n, err)
	}
}

func TestIntAlgebraBetweenSequential(t *testing.T) {
	a := MustIntAlgebra(IntAlgebraConfig{Name: "seq", Start: 1, Gap: 1, Width: 16})
	one := IntCode{V: 1, Width: 16}
	two := IntCode{V: 2, Width: 16}
	five := IntCode{V: 5, Width: 16}
	// Dense neighbours force a relabel — the expected outcome of a dense
	// insert, so it is counted and costs no error text.
	if _, err := a.Between(one, two); !errors.Is(err, ErrNeedRelabel) {
		t.Errorf("dense between: %v", err)
	}
	var left, right Code = one, two // boxed once, outside the measurement
	if allocs := testing.AllocsPerRun(20, func() { _, _ = a.Between(left, right) }); allocs != 0 {
		t.Errorf("a refused Between allocates %.0f times, want 0", allocs)
	}
	if got := a.Counters().RelabelErrors; got != 22 {
		t.Errorf("RelabelErrors = %d, want one per refusal = 22", got)
	}
	// A deletion gap is reusable.
	m, err := a.Between(one, five)
	if err != nil {
		t.Fatal(err)
	}
	if m.(IntCode).V != 2 {
		t.Errorf("sequential between: %v", m)
	}
	// Before the floor relabels.
	if _, err := a.Between(nil, one); !errors.Is(err, ErrNeedRelabel) {
		t.Errorf("before floor: %v", err)
	}
	// Append extends by Gap.
	m, err = a.Between(five, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.(IntCode).V != 6 {
		t.Errorf("append: %v", m)
	}
	// Empty bounds yield Start.
	m, err = a.Between(nil, nil)
	if err != nil || m.(IntCode).V != 1 {
		t.Errorf("empty bounds: %v %v", m, err)
	}
	// Misordered input is rejected.
	if _, err := a.Between(five, one); !errors.Is(err, ErrBadCode) {
		t.Errorf("misorder: %v", err)
	}
	// Foreign code types are rejected.
	if _, err := a.Between(BitString("01"), nil); !errors.Is(err, ErrBadCode) {
		t.Errorf("foreign left: %v", err)
	}
	if _, err := a.Between(nil, QString("2")); !errors.Is(err, ErrBadCode) {
		t.Errorf("foreign right: %v", err)
	}
}

func TestIntAlgebraBetweenMidpoint(t *testing.T) {
	a := MustIntAlgebra(IntAlgebraConfig{Name: "mid", Start: 64, Gap: 64, Width: 16, Floor: 1, Midpoint: true})
	lo := IntCode{V: 64, Width: 16}
	hi := IntCode{V: 128, Width: 16}
	m, err := a.Between(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if m.(IntCode).V != 96 {
		t.Errorf("midpoint: %v", m)
	}
	// Before-first bisects down to the floor.
	m, err = a.Between(nil, lo)
	if err != nil {
		t.Fatal(err)
	}
	if v := m.(IntCode).V; v < 1 || v >= 64 {
		t.Errorf("before-first: %v", m)
	}
	// Division-free trait is declared: midpoints are shifts.
	if !a.Traits().DivisionFree {
		t.Error("midpoint algebra should declare division-free")
	}
	if a.Counters().Divisions != 0 {
		t.Error("midpoint counted divisions")
	}
}

func TestIntAlgebraAppendOverflow(t *testing.T) {
	a := MustIntAlgebra(IntAlgebraConfig{Name: "tiny", Start: 1, Gap: 1, Width: 4})
	last := IntCode{V: 15, Width: 4}
	if _, err := a.Between(last, nil); !errors.Is(err, ErrOverflow) {
		t.Errorf("append at max: %v", err)
	}
}

// TestIntAlgebraBetweenProperty: any successful Between lands strictly
// inside its bounds.
func TestIntAlgebraBetweenProperty(t *testing.T) {
	a := MustIntAlgebra(IntAlgebraConfig{Name: "prop", Start: 1, Gap: 8, Width: 30, Floor: 1, Midpoint: true})
	f := func(x, y uint32) bool {
		l := int64(x % (1 << 29))
		r := int64(y % (1 << 29))
		if l > r {
			l, r = r, l
		}
		if l == r {
			return true
		}
		m, err := a.Between(IntCode{V: l, Width: 30}, IntCode{V: r, Width: 30})
		if err != nil {
			return errors.Is(err, ErrNeedRelabel) && r-l < 2
		}
		v := m.(IntCode).V
		return l < v && v < r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntCodeString(t *testing.T) {
	if (IntCode{V: 42, Width: 16}).String() != "42" {
		t.Error("IntCode render")
	}
}
