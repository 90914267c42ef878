package update_test

// The scheme contract behind in-place verification: CompareNodes agrees
// with Compare on Label, and where it declines (ok=false) OrderCheck
// still reaches the verdict, and the words, of comparing materialised
// labels. Checked for every registry scheme over random node pairs of
// random documents, between the transactions of an update storm.

import (
	"cmp"
	"fmt"
	"math/rand"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/labeling"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// labelVerdict is the reference OrderCheck: what a run of prev then n
// reports when every label is materialised and compared with Compare.
func labelVerdict(lab labeling.Interface, prev, n *xmltree.Node) error {
	lp, ln := lab.Label(prev), lab.Label(n)
	switch {
	case lp == nil:
		return fmt.Errorf("labeling %s: unlabelled node %q", lab.Name(), prev.Name())
	case ln == nil:
		return fmt.Errorf("labeling %s: unlabelled node %q", lab.Name(), n.Name())
	case lab.Compare(lp, ln) >= 0:
		return fmt.Errorf("labeling %s: document order violated: %s (%s) !< %s (%s)",
			lab.Name(), prev.Name(), lp, n.Name(), ln)
	}
	return nil
}

// pairStats counts what the checked pairs exercised.
type pairStats struct{ pairs, declined, ties, unlabelled int }

// checkPair holds CompareNodes(a, b) and an OrderCheck run of a then b
// against the materialised labels.
func checkPair(t *testing.T, lab labeling.Interface, a, b *xmltree.Node, st *pairStats) {
	t.Helper()
	la, lb := lab.Label(a), lab.Label(b)
	c, ok := lab.CompareNodes(a, b)
	st.pairs++
	switch {
	case la == nil || lb == nil:
		st.unlabelled++
		if ok {
			t.Fatalf("%s: CompareNodes(%q, %q) = %d, ok with labels %v, %v: an unlabelled node must not compare",
				lab.Name(), a.Name(), b.Name(), c, la, lb)
		}
	case ok:
		if want := lab.Compare(la, lb); cmp.Compare(c, 0) != cmp.Compare(want, 0) {
			t.Fatalf("%s: CompareNodes(%q, %q) = %d, Compare(%s, %s) = %d", lab.Name(), a.Name(), b.Name(), c, la, lb, want)
		}
	default:
		st.declined++
		if a != b && lab.Compare(la, lb) == 0 {
			st.ties++
		}
	}
	run := labeling.OrderCheck{Lab: lab}
	got := run.Restart(a)
	if got == nil {
		got = run.Next(b)
	}
	if want := labelVerdict(lab, a, b); (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: OrderCheck over %q, %q (CompareNodes %d, %v):\n got %v\nwant %v", lab.Name(), a.Name(), b.Name(), c, ok, got, want)
	}
}

// checkPairs checks every adjacent pair in both directions, every node
// against itself, and random pairs.
func checkPairs(t *testing.T, s *update.Session, rng *rand.Rand, st *pairStats) {
	t.Helper()
	lab, nodes := s.Labeling(), s.Document().LabelledNodes()
	for i, n := range nodes {
		checkPair(t, lab, n, n, st)
		if i > 0 {
			checkPair(t, lab, nodes[i-1], n, st)
			checkPair(t, lab, n, nodes[i-1], st)
		}
	}
	for i := 0; i < 200; i++ {
		checkPair(t, lab, nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], st)
	}
}

func TestCompareNodesMatchesCompare(t *testing.T) {
	holdBulkViews(t)
	txns := 400
	if testing.Short() || raceEnabled {
		txns = 80
	}
	for _, scheme := range core.Registry() {
		t.Run(scheme.Name, func(t *testing.T) {
			t.Parallel()
			var st pairStats
			for seed := int64(1); seed <= 3; seed++ {
				doc := xmltree.Generate(xmltree.GenOptions{Seed: seed, MaxDepth: 5, MaxChildren: 5, AttrProb: 0.4, TextProb: 0.5, TargetNodes: 40})
				// Auto-verify stays off: nothing is rejected, so the
				// collisions lsdx produces stay in the document.
				s, err := update.NewSession(doc, scheme.Factory())
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				checkPairs(t, s, rng, &st)
				for i := 0; i < txns; i++ {
					tx := buildTxn(rngPicker{rng}, s, genOptions{moves: true})
					if tx.mode == modeSingle {
						err = tx.single()
					} else {
						_, err = s.Apply(tx.ops)
					}
					if err != nil {
						t.Fatalf("seed %d txn %d (%s): %v", seed, i, tx.desc, err)
					}
					if i%8 == 0 {
						checkPairs(t, s, rng, &st)
					}
				}
				checkPairs(t, s, rng, &st)

				// A subtree attached behind the labelling's back has no
				// labels. A node the session then inserts below it gets
				// a code of its own under a prefix scheme and still no
				// label — its path runs through the stowaway — while a
				// scheme with a label table may label it, or renumber
				// and pick the stowaway up: whatever Label says,
				// CompareNodes and OrderCheck must say the same.
				nodes := s.Document().LabelledNodes()
				host := nodes[rng.Intn(len(nodes))]
				for host.Kind() != xmltree.KindElement {
					host = host.Parent()
				}
				stowaway := xmltree.NewElement("stowaway")
				inner := xmltree.NewElement("inner")
				if err := stowaway.AppendChild(inner); err != nil {
					t.Fatal(err)
				}
				if err := host.InsertChildAt(rng.Intn(len(host.Children())+1), stowaway); err != nil {
					t.Fatal(err)
				}
				against := func(hidden ...*xmltree.Node) {
					for _, h := range hidden {
						checkPair(t, s.Labeling(), h, h, &st)
						for i := 0; i < 20; i++ {
							n := nodes[rng.Intn(len(nodes))]
							checkPair(t, s.Labeling(), h, n, &st)
							checkPair(t, s.Labeling(), n, h, &st)
						}
					}
				}
				before := st.unlabelled
				against(stowaway, inner)
				if got := st.unlabelled - before; got != 82 {
					t.Fatalf("seed %d: %d of 82 pairs with a stowaway had an unlabelled side", seed, got)
				}
				if late, err := s.AppendChild(stowaway, "late"); err == nil {
					against(stowaway, inner, late)
				}
				if got, want := fmt.Sprint(s.Verify()), fmt.Sprint(labeling.VerifyOrder(s.Labeling(), s.Document())); got != want {
					t.Fatalf("Verify: %s, VerifyOrder: %s", got, want)
				}
			}
			if scheme.Name == "lsdx" && st.ties == 0 {
				t.Error("lsdx: the storms produced no colliding sibling codes; the tie path went untested")
			}
			t.Logf("%d pairs, %d declined by CompareNodes (%d ties between distinct nodes, %d with an unlabelled side)",
				st.pairs, st.declined+st.unlabelled, st.ties, st.unlabelled)
		})
	}
}
