package labels_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/labels"
	"xmldyn/internal/workload"
)

// buildCounters is what each instrumented registry scheme's algebra
// counted while labelling workload.BaseDocument(1, 300), read at the
// commit before the bulk tables existed (PR 21). internal/core's
// division and recursion probes, and so cmd/matrix, print these.
var buildCounters = map[string]labels.Counters{
	"xrel":           {Assigns: 1},
	"sector":         {Assigns: 1},
	"qrs":            {Assigns: 1},
	"deweyid":        {Assigns: 63},
	"ordpath":        {Assigns: 63},
	"dln":            {Assigns: 63},
	"lsdx":           {Assigns: 62},
	"improvedbinary": {Assigns: 62, Divisions: 174, MaxRecursion: 4},
	"qed":            {Assigns: 63, Divisions: 290, MaxRecursion: 3},
	"cdqs":           {Assigns: 63},
	"vector":         {Assigns: 1, MaxRecursion: 11},
	"vector-prefix":  {Assigns: 63, MaxRecursion: 5},
	"cdbs":           {Assigns: 62},
	"com-d":          {Assigns: 62},
	"cohen":          {Assigns: 63},
}

// TestBuildCountersSameColdAndWarm: a bulk table answers for the
// computation it stands for in the counters too. Every scheme's Build
// counts what it counted before there were tables — with the tables
// empty, where each row's first use computes it and the later ones of
// the same Build hit it, and again with every row there.
func TestBuildCountersSameColdAndWarm(t *testing.T) {
	labels.ResetBulks()
	doc := workload.BaseDocument(1, 300)
	for _, tables := range []string{"cold", "warm"} {
		seen := 0
		for _, s := range core.Registry() {
			lab := s.Factory()
			ap, ok := lab.(interface{ Algebra() labels.Algebra })
			if !ok {
				continue
			}
			inst, ok := ap.Algebra().(labels.Instrumented)
			if !ok {
				continue
			}
			if err := lab.Build(doc); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			want, pinned := buildCounters[s.Name]
			if got := *inst.Counters(); !pinned || got != want {
				t.Errorf("%s, tables %s: Build counted %+v, want %+v (pinned: %v)", s.Name, tables, got, want, pinned)
			}
			seen++
		}
		if seen != len(buildCounters) {
			t.Errorf("%d instrumented schemes, %d pinned", seen, len(buildCounters))
		}
	}
}

// fakeCode and fakeAlgebra: a recursive, dividing Assign whose cost
// depends on n, and that cannot assign 13 codes.
type fakeCode int

func (c fakeCode) String() string { return fmt.Sprint(int(c)) }
func (c fakeCode) Bits() int      { return 8 }

type fakeAlgebra struct {
	c     labels.Counters
	calls int
}

var errThirteen = errors.New("thirteen")

func (a *fakeAlgebra) assign(n int) ([]labels.Code, error) {
	a.calls++
	a.c.Assigns++
	if n == 13 {
		a.c.OverflowHits++
		return nil, errThirteen
	}
	a.c.Divisions += int64(2 * n)
	a.c.MaxRecursion = max(a.c.MaxRecursion, n%7)
	out := make([]labels.Code, max(n, 0))
	for i := range out {
		out[i] = fakeCode(n*1000 + i)
	}
	return out, nil
}

// TestBulkAssign: a hit returns the codes and moves the counters exactly
// as the computation would have; the caller owns the slice it gets; an
// error, an n beyond the bound and n ≤ 0 are computed every time.
func TestBulkAssign(t *testing.T) {
	table := labels.BulkFor(t.Name())
	var direct, first, second fakeAlgebra
	sizes := []int{5, 0, 3, 13, 5, 6, labels.BulkMax, labels.BulkMax + 1, 13, -1, 3}
	for _, n := range sizes {
		want, wantErr := direct.assign(n)
		for _, a := range []*fakeAlgebra{&first, &second} {
			got, err := table.Assign(n, &a.c, a.assign)
			if !errors.Is(err, wantErr) || len(got) != len(want) {
				t.Fatalf("Assign(%d) = %d codes, %v; want %d, %v", n, len(got), err, len(want), wantErr)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Assign(%d)[%d] = %v, want %v", n, i, got[i], want[i])
				}
				got[i] = nil // the table must not see this
			}
			if a.c != direct.c {
				t.Fatalf("after Assign(%d): counters %+v, computing every time gives %+v", n, a.c, direct.c)
			}
		}
	}
	// 5, 3, 6 and BulkMax were computed once, by whoever came first.
	if first.calls != len(sizes)-2 || second.calls != len(sizes)-6 {
		t.Errorf("computed %d and %d times, want %d and %d", first.calls, second.calls, len(sizes)-2, len(sizes)-6)
	}
}

// TestBulkExtend: the list grows by what it lacks, and a request it
// covers costs the result slice alone.
func TestBulkExtend(t *testing.T) {
	table := labels.BulkFor(t.Name())
	boxed := 0
	at := func(i int) labels.Code { boxed++; return fakeCode(i) }
	for _, n := range []int{4, 2, 9, 9, 0} {
		got := table.Extend(n, at)
		if len(got) != n {
			t.Fatalf("Extend(%d) returned %d codes", n, len(got))
		}
		for i := range got {
			if got[i] != fakeCode(i) {
				t.Fatalf("Extend(%d)[%d] = %v", n, i, got[i])
			}
			got[i] = nil
		}
	}
	if boxed != 9 {
		t.Errorf("boxed %d codes for a list of 9", boxed)
	}
	if a := testing.AllocsPerRun(20, func() { table.Extend(9, at) }); a != 1 {
		t.Errorf("a covered Extend allocates %v, want the result slice", a)
	}
}

// TestBulkConcurrentLoaders: doc-snaps load in parallel, so algebras of
// one kind fill and read one table from many goroutines (run with -race).
func TestBulkConcurrentLoaders(t *testing.T) {
	table := labels.BulkFor(t.Name())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a, direct fakeAlgebra
			for i := 0; i < 400; i++ {
				n := 1 + (i*7+g)%12 // short of the 13 that fails
				direct.assign(n)
				if got, err := table.Assign(n, &a.c, a.assign); err != nil || len(got) != n {
					t.Errorf("Assign(%d) = %d codes, %v", n, len(got), err)
				}
				if got := table.Extend(n, func(i int) labels.Code { return fakeCode(i) }); len(got) != n {
					t.Errorf("Extend(%d) = %d codes", n, len(got))
				}
			}
			if a.c != direct.c {
				t.Errorf("counters %+v, computing every time gives %+v", a.c, direct.c)
			}
		}()
	}
	wg.Wait()
}
