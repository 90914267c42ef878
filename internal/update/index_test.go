package update_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"xmldyn/internal/core"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// indexPaths are the paths TestIndexMatchesWalk reads after every
// transaction: deep steps by name from the document, from one labelled
// context and from several (nested ones among them), and with a
// positional or an attribute predicate. The generator names elements
// n0–n2, k0–k2, g0–g2 and r0–r2, and sets attributes a0–a4.
var indexPaths = []string{
	"//n1", "//k2", "//g0",
	"/*//k1", "/*/*//n0", "//g1//k2", "//k0//n1",
	"//n2[2]", "//k1[@a1]", "//g2[@a2='v']", "//n0[k1]",
}

// TestIndexMatchesWalk is the element index's differential test. For
// every registry scheme, lsdx and com-d (which can give two nodes one
// label) among them, a seeded stream of inserts,
// deletes, renames, moves and subtree inserts, failing batches and
// staged aborts among them, runs on one session, with auto-verify on
// where the scheme's labels are unique and off (a bare session) where
// they can tie.
// After every transaction each of indexPaths, and a deep step by the
// name of an element drawn from the document, is answered twice on the
// same state: by the session's indexed engine and by an engine without
// an index, which walks with xmltree.Descendants. The answers must be
// the same nodes in the same order, every labellable node must hold a
// label, and every list the index holds must match its walk; where the
// labels are unique, the session's whole Verify must pass.
func TestIndexMatchesWalk(t *testing.T) {
	txns := 3000
	if testing.Short() || raceEnabled {
		txns = 300
	}
	for _, scheme := range core.Registry() {
		t.Run(scheme.Name, func(t *testing.T) {
			t.Parallel()
			s, err := update.NewSession(diffDoc(), scheme.Factory())
			if err != nil {
				t.Fatal(err)
			}
			s.SetAutoVerify(scheme.UniqueLabels)
			rng := rand.New(rand.NewSource(1))
			opt := genAll
			opt.fewNames = true
			for i := range txns {
				tx := buildTxn(rngPicker{rng}, s, opt)
				// A transaction may fail; it then reverts, and so drops
				// the index.
				switch tx.mode {
				case modeSingle:
					_ = tx.single()
				case modeStaged:
					if _, err := s.Stage(tx.ops); err == nil {
						if err := s.Abort(); err != nil {
							t.Fatalf("txn %d (%s): abort: %v", i, tx.desc, err)
						}
					}
				default:
					_, _ = s.Apply(tx.ops)
				}
				nodes := s.Document().LabelledNodes()
				drawn := "//" + nodes[rng.Intn(len(nodes))].Name()
				where := fmt.Sprintf("%s txn %d (%s: %s)", scheme.Name, i, tx.mode, tx.desc)
				for _, n := range nodes {
					if s.Labeling().Label(n) == nil {
						t.Fatalf("%s: %s at depth %d has no label", where, n.Name(), n.Depth())
					}
				}
				for _, path := range append(indexPaths[:len(indexPaths):len(indexPaths)], drawn) {
					assertIndexAnswers(t, s, path, where)
				}
				verify := s.Verify
				if !scheme.UniqueLabels {
					verify = func() error { return s.Index().Verify(s.Document()) }
				}
				if err := verify(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
			// The warm lists were read, not walked: an absent name keeps
			// an empty list, so a warm read of it examines nothing.
			eng := s.Engine()
			got, err := eng.Query("//n1")
			if err != nil {
				t.Fatal(err)
			}
			if eng.Examined() != len(got) {
				t.Errorf("%s: a warm //n1 of %d nodes examined %d", scheme.Name, len(got), eng.Examined())
			}
		})
	}
}

// assertIndexAnswers compares the session's indexed answer to path
// with the walk's on the same state.
func assertIndexAnswers(t *testing.T, s *update.Session, path, where string) {
	t.Helper()
	got, err := s.Engine().Query(path)
	if err != nil {
		t.Fatalf("%s, %s: indexed: %v", where, path, err)
	}
	want, err := xpath.New(s.Document(), s.Labeling(), xpath.ModeStructural).Query(path)
	if err != nil {
		t.Fatalf("%s, %s: walk: %v", where, path, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s, %s: the index answers %s, the walk %s", where, path, nodeNames(got), nodeNames(want))
	}
}

// nodeNames renders nodes by name and position in the document.
func nodeNames(nodes []*xmltree.Node) string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = fmt.Sprintf("%s@%d", n.Name(), n.Depth())
	}
	return fmt.Sprint(out)
}

// TestVerifyChecksTheIndex: a node renamed behind the session's back,
// after a read of //item built that name's list, leaves the list wrong,
// and Verify reports the index, though labels still order as the
// document does. A node renamed to item may fall between listed items
// or after the last; a listed item renamed away stays listed.
func TestVerifyChecksTheIndex(t *testing.T) {
	for _, c := range []struct {
		child int
		name  string
	}{{1, "item"}, {3, "item"}, {2, "z"}} {
		doc, err := xmltree.ParseString("<r><item/><x/><item/><y/></r>")
		if err != nil {
			t.Fatal(err)
		}
		s, err := update.NewSession(doc, core.MustScheme("qed").Factory())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.Engine().Query("//item"); err != nil || len(got) != 2 {
			t.Fatalf("//item: %d nodes, %v; want 2", len(got), err)
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
		doc.Root().Children()[c.child].SetName(c.name)
		if err := s.Verify(); err == nil {
			t.Errorf("Verify passed a list of item after child %d was renamed to %s", c.child, c.name)
		}
	}
}

// TestIndexHoldsFoundNamesUpToItsCap: a read of a name the document
// lacks keeps its empty list, so the next read of it examines nothing,
// and an insert of that name lands in the list; and reading more names
// than the index holds drops the lists it held, so the first name read
// walks again. Either way the answers are the walk's, before and after
// an insert of that name.
func TestIndexHoldsFoundNamesUpToItsCap(t *testing.T) {
	const names = 40 // more than the index holds
	var xml strings.Builder
	xml.WriteString("<r>")
	for i := range names {
		fmt.Fprintf(&xml, "<w%d/>", i)
	}
	xml.WriteString("</r>")
	doc, err := xmltree.ParseString(xml.String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := update.NewSession(doc, core.MustScheme("qed").Factory())
	if err != nil {
		t.Fatal(err)
	}
	// examined reads path and returns how many nodes the read examined,
	// checking its answer against the walk's after.
	examined := func(path string) int {
		t.Helper()
		eng := s.Engine()
		if _, err := eng.Query(path); err != nil {
			t.Fatal(err)
		}
		assertIndexAnswers(t, s, path, "cap")
		return eng.Examined()
	}
	if got := examined("//absent"); got < names {
		t.Errorf("the first //absent examined %d nodes, want the walk's %d or more", got, names)
	}
	if got := examined("//absent"); got != 0 {
		t.Errorf("a warm //absent examined %d nodes, want 0 (its empty list)", got)
	}
	added, err := s.AppendChild(doc.Root(), "absent")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Engine().Query("//absent"); err != nil || !slices.Equal(got, []*xmltree.Node{added}) {
		t.Fatalf("//absent after its insert returned %s, %v; want the inserted element", nodeNames(got), err)
	}
	assertIndexAnswers(t, s, "//absent", "cap, after an insert of an absent name")
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	for i := range names {
		path := fmt.Sprintf("//w%d", i)
		if got := examined(path); got < names {
			t.Errorf("the first %s examined %d nodes, want the walk's %d or more", path, got, names)
		}
		if got := examined(path); got != 1 {
			t.Errorf("a warm %s examined %d nodes, want 1 (its list)", path, got)
		}
	}
	if got := examined("//w0"); got < names {
		t.Errorf("//w0, read again past the cap, examined %d nodes, want a walk: its list was dropped", got)
	}
	if _, err := s.AppendChild(doc.Root(), "w0"); err != nil {
		t.Fatal(err)
	}
	assertIndexAnswers(t, s, "//w0", "cap, after an insert")
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkIndexUpkeepWideParent: the element index's upkeep under one
// wide parent. An iteration appends 4 000 item elements to the root of
// read_heavy's first document (seed 1) with //item held, then deletes
// them, reporting the time of one append and of one delete. The list is
// ordered by the tree, so each search compares siblings by scanning the
// root's child list: an op costs the parent's width, where a label
// compare cost a label's length.
func BenchmarkIndexUpkeepWideParent(b *testing.B) {
	const items = 4000
	_, docs := workload.BuildCorpus(workload.FewHugeDocs(), 1)
	s, err := update.NewSession(docs[0], core.MustScheme("qed").Factory())
	if err != nil {
		b.Fatal(err)
	}
	held, err := s.Engine().Query("//item")
	if err != nil {
		b.Fatal(err)
	}
	root := s.Document().Root()
	added := make([]*xmltree.Node, items)
	var appending, deleting time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		start := time.Now()
		for i := range added {
			if added[i], err = s.AppendChild(root, "item"); err != nil {
				b.Fatal(err)
			}
		}
		mid := time.Now()
		for _, n := range slices.Backward(added) {
			if err := s.Delete(n); err != nil {
				b.Fatal(err)
			}
		}
		appending += mid.Sub(start)
		deleting += time.Since(mid)
	}
	b.StopTimer()
	if got, err := s.Engine().Query("//item"); err != nil || len(got) != len(held) {
		b.Fatalf("//item after the round trips: %d nodes, %v; want %d", len(got), err, len(held))
	}
	b.ReportMetric(float64(appending.Nanoseconds())/float64(b.N*items), "ns/append")
	b.ReportMetric(float64(deleting.Nanoseconds())/float64(b.N*items), "ns/delete")
}
