package core

import (
	"reflect"
	"slices"
	"testing"

	"xmldyn/internal/labels"
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
