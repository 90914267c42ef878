package core

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/dln"
)

// TestProbeCountersPinned pins what Figure 7's last two columns are
// graded from: each registry scheme's division count and deepest
// recursion under the default probe sizes, and whether they were
// measured from an algebra ("instrumented") or stated ("declared": a
// labeling with no algebra). A change to an algebra's counting shows
// here as a changed figure, before it can move a grade.
func TestProbeCountersPinned(t *testing.T) {
	type pin struct {
		divisions int64
		recursion int
		source    string
	}
	instrumented := func(d int64, r int) pin { return pin{d, r, "instrumented"} }
	declared := pin{0, 0, "declared"}
	want := map[string]pin{
		"xpath-accelerator": declared,
		"prime":             declared,
		"dde":               declared,
		"qrs":               instrumented(2797, 0),
		"ordpath":           instrumented(205, 0),
		"improvedbinary":    instrumented(4316, 9),
		"qed":               instrumented(5830, 3),
		"vector":            instrumented(0, 13),
		"vector-prefix":     instrumented(0, 10),
	}
	reg := Registry()
	if len(reg) != 18 {
		t.Fatalf("registry has %d schemes, want 18", len(reg))
	}
	for _, s := range reg {
		w, ok := want[s.Name]
		if !ok {
			w = instrumented(0, 0)
		}
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			_, rep, err := Evaluate(s, DefaultProbeConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got := (pin{rep.Divisions, rep.MaxRecursion, rep.TraitsSource}); got != w {
				t.Errorf("divisions/recursion/source = %d/%d/%s, want %d/%d/%s",
					got.divisions, got.recursion, got.source, w.divisions, w.recursion, w.source)
			}
		})
	}
}

// TestOnlyDividingAlgebrasCount: an algebra's counters hold what Figure
// 7 grades and nothing else, and only an algebra that divides or
// recurses keeps them. Every other algebra-backed scheme — the integer
// ones, DLN, Cohen, CDQS, CDBS, LSDX and Com-D — reads "instrumented"
// with no division and no recursion by construction.
func TestOnlyDividingAlgebrasCount(t *testing.T) {
	var fields []string
	for typ, i := reflect.TypeFor[labels.Counters](), 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if want := []string{"Divisions", "MaxRecursion"}; !slices.Equal(fields, want) {
		t.Errorf("labels.Counters has fields %v, want %v", fields, want)
	}
	var counting []string
	for _, s := range Registry() {
		ap, ok := s.Factory().(algebraProvider)
		if !ok {
			continue
		}
		if _, ok := ap.Algebra().(interface{ Counters() *labels.Counters }); ok {
			counting = append(counting, s.Name)
		}
	}
	slices.Sort(counting)
	if want := []string{"improvedbinary", "ordpath", "qed", "qrs", "vector", "vector-prefix"}; !slices.Equal(counting, want) {
		t.Errorf("schemes whose algebra counts: %v, want %v", counting, want)
	}
}

// algebraSchemes is every registry scheme whose labelling has a code
// algebra: 15 schemes over 12 algebra types.
func algebraSchemes() []SchemeUnderTest {
	var out []SchemeUnderTest
	for _, s := range Registry() {
		if _, ok := s.Factory().(algebraProvider); ok {
			out = append(out, s)
		}
	}
	return out
}

// algebraOf is the algebra of a fresh labelling of s.
func algebraOf(s SchemeUnderTest) labels.Algebra {
	return s.Factory().(algebraProvider).Algebra()
}

// otherForm is the other boxed form of c: the value behind a pointer
// code, or a pointer to a value code.
func otherForm(c labels.Code) labels.Code {
	v := reflect.ValueOf(c)
	if v.Kind() == reflect.Pointer {
		return v.Elem().Interface().(labels.Code)
	}
	p := reflect.New(v.Type())
	p.Elem().Set(v)
	return p.Interface().(labels.Code)
}

// TestAlgebraNeighbourContract holds every algebra-backed registry
// scheme to labels.Algebra's neighbour contract. A refused Between
// hands out a nil code: swapped neighbours are ErrBadCode, except that
// Cohen refuses them with ErrNeedRelabel and LSDX and Com-D make a code
// for any pair. A neighbour of another Go type is ErrBadCode on either
// side: another scheme's code, the other boxed form of the algebra's
// own, and a DLN code of another width. qed and cdqs share
// *labels.QString, improvedbinary and cdbs *labels.BitString, and the
// integer schemes *labels.IntCode, so those are not foreign to each
// other.
func TestAlgebraNeighbourContract(t *testing.T) {
	schemes := algebraSchemes()
	if len(schemes) != 15 {
		t.Fatalf("%d registry schemes have an algebra, want 15", len(schemes))
	}
	bulk := make([][]labels.Code, len(schemes))
	for i, s := range schemes {
		cs, err := algebraOf(s).Assign(2)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		bulk[i] = cs
	}
	narrow, err := dln.MustAlgebra(dln.DefaultWidth / 2).Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range schemes {
		t.Run(s.Name, func(t *testing.T) {
			a, first, second := algebraOf(s), bulk[i][0], bulk[i][1]
			got, err := a.Between(second, first)
			refusal := labels.ErrBadCode
			if s.Name == "cohen" {
				refusal = labels.ErrNeedRelabel
			}
			switch {
			case !s.UniqueLabels:
				if err != nil {
					t.Errorf("swapped Between(%v, %v): %v; LSDX's rules make a code for any pair", second, first, err)
				}
			case got != nil || !errors.Is(err, refusal):
				t.Errorf("swapped Between(%v, %v) = %#v, %v; want nil, %v", second, first, got, err, refusal)
			}
			foreign := []labels.Code{otherForm(first), narrow[0]}
			for _, cs := range bulk {
				if reflect.TypeOf(cs[0]) != reflect.TypeOf(first) {
					foreign = append(foreign, cs[0])
				}
			}
			for _, c := range foreign {
				for _, pair := range [][2]labels.Code{{c, nil}, {nil, c}, {c, first}, {first, c}} {
					got, err := a.Between(pair[0], pair[1])
					if got != nil || !errors.Is(err, labels.ErrBadCode) {
						t.Errorf("Between(%#v, %#v) = %#v, %v; want nil, ErrBadCode", pair[0], pair[1], got, err)
					}
				}
			}
		})
	}
}

// FuzzAlgebraBetween drives Between on every algebra-backed registry
// scheme. The first byte picks the scheme; each later byte picks where
// in the sequence built so far the next code goes, between the codes on
// either side of that gap (nil at an end). An accepted code lies
// strictly between its neighbours by the algebra's Compare on every
// scheme with unique labels; a refused one is nil, wraps
// ErrNeedRelabel or ErrOverflow, and ends the sequence. The corpus
// seeds each scheme with a skewed run (every code after the first) and
// a random one.
func FuzzAlgebraBetween(f *testing.F) {
	schemes := algebraSchemes()
	for i := range schemes {
		skewed, random := []byte{byte(i)}, []byte{byte(i)}
		rng := rand.New(rand.NewPCG(uint64(i), 1))
		for range 256 {
			skewed = append(skewed, 1)
			random = append(random, byte(rng.Uint32()))
		}
		f.Add(skewed)
		f.Add(random)
	}
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) == 0 {
			return
		}
		if len(steps) > 1024 {
			steps = steps[:1024]
		}
		s := schemes[int(steps[0])%len(schemes)]
		a := algebraOf(s)
		var seq []labels.Code // in order
		for i, b := range steps[1:] {
			k := int(b) % (len(seq) + 1)
			var l, r labels.Code // nil: an open end
			if k > 0 {
				l = seq[k-1]
			}
			if k < len(seq) {
				r = seq[k]
			}
			got, err := a.Between(l, r)
			if err != nil {
				if got != nil || !errors.Is(err, labels.ErrNeedRelabel) && !errors.Is(err, labels.ErrOverflow) {
					t.Fatalf("%s step %d: Between(%v, %v) = %#v, %v; want nil and ErrNeedRelabel or ErrOverflow", s.Name, i, l, r, got, err)
				}
				return
			}
			if s.UniqueLabels && (l != nil && a.Compare(l, got) >= 0 || r != nil && a.Compare(got, r) >= 0) {
				t.Fatalf("%s step %d: Between(%v, %v) = %v, not strictly between", s.Name, i, l, r, got)
			}
			seq = slices.Insert(seq, k, got)
		}
	})
}
