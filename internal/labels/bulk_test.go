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
	if n, err := labels.VerifyBulks(registryAlgebras()...); err != nil || n == 0 {
		t.Errorf("after the builds: %d kept codes recomputed, %v", n, err)
	}
}

// registryAlgebras returns a fresh algebra of every registry scheme that
// has one, for VerifyBulks to recompute the kept rows with.
func registryAlgebras() []labels.Algebra {
	var out []labels.Algebra
	for _, s := range core.Registry() {
		if ap, ok := s.Factory().(interface{ Algebra() labels.Algebra }); ok {
			out = append(out, ap.Algebra())
		}
	}
	return out
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

// isView holds got to the contract of a shared row: exactly full, so
// that an append moves to an array of its own and the row stays what
// it was.
func isView(t *testing.T, what string, got []labels.Code) {
	t.Helper()
	if len(got) == 0 {
		return
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: len %d, cap %d: an append would reach the table", what, len(got), cap(got))
	}
	last := got[len(got)-1]
	if grown := append(got, fakeCode(-1)); &grown[0] == &got[0] || got[len(got)-1] != last {
		t.Fatalf("%s: an append wrote into the shared row", what)
	}
}

// TestBulkAssign: a hit returns the codes and moves the counters exactly
// as the computation would have; what a caller gets is a view of the
// kept row — len == cap == n, an append leaves the table intact, and two
// Assign(n) share one backing array; an error, an n beyond the bound and
// n ≤ 0 are computed every time.
func TestBulkAssign(t *testing.T) {
	table := labels.BulkFor(t.Name())
	var direct, first, second fakeAlgebra
	sizes := []int{5, 0, 3, 13, 5, 6, labels.BulkMax, labels.BulkMax + 1, 13, -1, 3}
	for _, n := range sizes {
		want, wantErr := direct.assign(n)
		var views [2][]labels.Code
		for k, a := range []*fakeAlgebra{&first, &second} {
			got, err := table.Assign(n, &a.c, a.assign)
			if !errors.Is(err, wantErr) || len(got) != len(want) {
				t.Fatalf("Assign(%d) = %d codes, %v; want %d, %v", n, len(got), err, len(want), wantErr)
			}
			isView(t, fmt.Sprintf("Assign(%d)", n), got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Assign(%d)[%d] = %v, want %v", n, i, got[i], want[i])
				}
			}
			if a.c != direct.c {
				t.Fatalf("after Assign(%d): counters %+v, computing every time gives %+v", n, a.c, direct.c)
			}
			views[k] = got
		}
		if kept := n > 0 && n <= labels.BulkMax && wantErr == nil; kept && &views[0][0] != &views[1][0] {
			t.Fatalf("two Assign(%d) do not share a backing array", n)
		}
	}
	// 5, 3, 6 and BulkMax were computed once, by whoever came first.
	if first.calls != len(sizes)-2 || second.calls != len(sizes)-6 {
		t.Errorf("computed %d and %d times, want %d and %d", first.calls, second.calls, len(sizes)-2, len(sizes)-6)
	}
}

// TestBulkExtend: the list grows by what it lacks, every result is a
// view of it — len == cap == n, an append leaves the list intact, an
// earlier view still reads its codes after the list has grown past it —
// and a request the list covers costs nothing. Past the bound the list
// is not kept, and the tail is computed into an array no other call
// writes.
func TestBulkExtend(t *testing.T) {
	table := labels.BulkFor(t.Name())
	boxed := 0
	at := func(i int) labels.Code { boxed++; return fakeCode(i) }
	var views [][]labels.Code
	for _, n := range []int{4, 2, 9, 9, 0} {
		got := table.Extend(n, at)
		if len(got) != n {
			t.Fatalf("Extend(%d) returned %d codes", n, len(got))
		}
		isView(t, fmt.Sprintf("Extend(%d)", n), got)
		views = append(views, got)
	}
	if boxed != 9 {
		t.Errorf("boxed %d codes for a list of 9", boxed)
	}
	if &views[2][0] != &views[3][0] {
		t.Error("two Extend(9) do not share a backing array")
	}
	if a := testing.AllocsPerRun(20, func() { table.Extend(9, at) }); a != 0 {
		t.Errorf("a covered Extend allocates %v, want nothing", a)
	}
	const beyond = labels.BulkMax*labels.BulkMax/2 + 1
	views = append(views, table.Extend(beyond, at), table.Extend(beyond, at))
	if boxed != 9+2*(beyond-9) {
		t.Errorf("boxed %d codes, want the list's 9 and two unkept tails of %d", boxed, beyond-9)
	}
	if &views[5][9] == &views[6][9] {
		t.Error("two Extend past the bound wrote their tails into one array")
	}
	for _, v := range views {
		isView(t, fmt.Sprintf("Extend(%d), afterwards", len(v)), v)
		for i, c := range v {
			if c != fakeCode(i) {
				t.Fatalf("Extend(%d)[%d] = %v", len(v), i, c)
			}
		}
	}
}

// TestVerifyBulksSeesAWrite: the check the registry-wide storms end with
// fails when a caller has written into a view — of a row or of the list
// — and passes again once the table is what its algebra computes.
func TestVerifyBulksSeesAWrite(t *testing.T) {
	labels.ResetBulks()
	for _, a := range []labels.Algebra{
		labels.MustIntAlgebra(labels.IntAlgebraConfig{Name: t.Name(), Start: 1, Gap: 2, Width: 16}), // a list
		core.MustScheme("qed").Factory().(interface{ Algebra() labels.Algebra }).Algebra(),          // rows
	} {
		if _, err := a.Assign(7); err != nil {
			t.Fatal(err)
		}
		if n, err := labels.VerifyBulks(a); n != 7 || err != nil {
			t.Fatalf("%s, untouched: %d codes recomputed, %v", a.Name(), n, err)
		}
		view, _ := a.Assign(7)
		view[3] = view[4]
		if _, err := labels.VerifyBulks(a); err == nil {
			t.Fatalf("%s: a view was written and VerifyBulks passed", a.Name())
		}
		if n, err := labels.VerifyBulks(a); n != 7 || err != nil {
			t.Fatalf("%s, computed again: %d codes recomputed, %v", a.Name(), n, err)
		}
	}
}

// TestBulkConcurrentLoaders: doc-snaps load in parallel, so algebras of
// one kind fill one table and read views of it from many goroutines
// (run with -race).
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
				got, err := table.Assign(n, &a.c, a.assign)
				if err != nil || len(got) != n || got[n-1] != fakeCode(n*1000+n-1) {
					t.Errorf("Assign(%d) = %d codes, %v", n, len(got), err)
				}
				// The list keeps growing under the readers of its earlier views.
				m := n + i + g
				if got := table.Extend(m, func(i int) labels.Code { return fakeCode(i) }); len(got) != m || got[0] != fakeCode(0) || got[m-1] != fakeCode(m-1) {
					t.Errorf("Extend(%d) = %d codes", m, len(got))
				}
			}
			if a.c != direct.c {
				t.Errorf("counters %+v, computing every time gives %+v", a.c, direct.c)
			}
		}()
	}
	wg.Wait()
}
