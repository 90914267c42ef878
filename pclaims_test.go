package xmldyn

// Performance claims as tests, the P series beside the paper's C1–C8.
// Each claim measures a count per scheme, holds each reading to the
// bound the claim set, and renders its row of docs/EXPERIMENTS.md's
// "Performance claims" table: TestPClaims requires the doc to print
// the row as measured, and TestPClaimIDsMatchDoc holds the doc's ids to
// this file's. A reading is a count or a heap size after two
// runtime.GC calls, never a time, and it repeats within 1 % at its
// seed. A later change may tighten a bound, not loosen it.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// pclaims is every row of the "Performance claims" table.
var pclaims = []struct {
	id, what string
	seed     int64
	bounds   []pbound
	measure  func(scheme string, seed int64) (float64, error)
	// raceMoves, when set, says how the race detector moves the
	// readings: the claim is then measured only without it.
	raceMoves string
}{
	{"P1", "label heap per labelled node after `update.NewSession` on `workload.BaseDocument(seed, 20000)`, bytes", 1,
		[]pbound{{"qed", 26}, {"ordpath", 26}, {"deweyid", 26}, {"cdbs", 26}, {"xpath-accelerator", 35}, {"vector", 100}},
		labelHeapPerNode, ""},
	{"P2", "labelled nodes one warm `//item` read examines on the first document of `workload.BuildCorpus(workload.FewHugeDocs(), seed)` after 48 root `item` appends (the walk examines every labelled node)", 1,
		[]pbound{{"qed", 200}, {"ordpath", 200}, {"deweyid", 200}, {"cdbs", 200}},
		nodesPerRead, ""},
	{"P4", "heap bytes one in-memory `Repository.Batch` of 8 `AppendChild`s allocates on a clone of `workload.BaseDocument(seed, 2000)`, the least of three", 1,
		[]pbound{{"qed", 5000}, {"ordpath", 5200}, {"deweyid", 5000}, {"cdbs", 5100}},
		batchHeapBytes, "a label table's page list grows by more under it"},
	{"P6", "nodes one warm `//item` read on a pinned version of the first document of `workload.BuildCorpus(workload.FewHugeDocs(), seed)` examines after 48 root `item` appends (the version's first read walks it)", 1,
		[]pbound{{"qed", 200}, {"ordpath", 200}, {"deweyid", 200}, {"cdbs", 200}},
		versionNodesPerRead, ""},
	{"P7", "heap allocations per `Session.InsertBefore` over 2 000 inserts before the root's first element child of `workload.BaseDocument(seed, 1000)`, auto-verify off", 1,
		[]pbound{{"deweyid", 1.5}, {"ordpath", 1.5}, {"qed", 1.5}, {"cdqs", 1.5}, {"cdbs", 1.5}, {"vector", 1.5}, {"xpath-accelerator", 1.5}},
		skewedInsertAllocs, ""},
	{"P8", "nodes the first `//item` read on a version pinned after one more root `item` append examines, the pin's capture of the live lists included, on P6's document with `//item` read live before the pins (the walk examines every node)", 1,
		[]pbound{{"qed", 200}, {"ordpath", 200}, {"deweyid", 200}, {"cdbs", 200}},
		versionFirstReadNodes, ""},
	{"P9", "heap allocations `workload.BuildCorpus(workload.FewHugeDocs(), seed)` makes: `read_heavy`'s four generated documents of 20 000 nodes, labelled by no scheme", 1,
		[]pbound{{"", 64}},
		corpusAllocs, "its instrumentation adds one or two allocations"},
}

type pbound struct {
	scheme string
	max    float64
}

// liveHeap returns the bytes the heap holds once garbage is collected.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// labelHeapPerNode is P1: what a session's labels keep live, per
// labelled node. A first session on a clone fills the code rows every
// document shares, so the reading is the document's own.
func labelHeapPerNode(scheme string, seed int64) (float64, error) {
	doc := workload.BaseDocument(seed, 20000)
	factory := core.MustScheme(scheme).Factory
	if _, err := update.NewSession(doc.Clone(), factory()); err != nil {
		return 0, err
	}
	before := liveHeap()
	s, err := update.NewSession(doc, factory())
	if err != nil {
		return 0, err
	}
	after := liveHeap()
	runtime.KeepAlive(s)
	return float64(after-before) / float64(doc.LabelledCount()), nil
}

// nodesPerRead is P2: the labelled nodes a session's engine examines
// for one //item read after 48 appends to the root: the first append's
// item is read, which builds the name's list (a name the document lacks
// gets none), and the other 47 appends keep it current. The walk it
// replaces examines every labelled node of the document, and the
// reading must be at least 100 times fewer (H25).
func nodesPerRead(scheme string, seed int64) (float64, error) {
	_, docs := workload.BuildCorpus(workload.FewHugeDocs(), seed)
	s, err := update.NewSession(docs[0], core.MustScheme(scheme).Factory())
	if err != nil {
		return 0, err
	}
	walk := xpath.New(s.Document(), s.Labeling(), xpath.ModeStructural)
	if _, err := walk.Query("//item"); err != nil {
		return 0, err
	}
	for i := range 48 {
		if _, err := s.AppendChild(s.Document().Root(), "item"); err != nil {
			return 0, err
		}
		if i == 0 {
			if _, err := s.Engine().Query("//item"); err != nil { // builds the list
				return 0, err
			}
		}
	}
	eng := s.Engine()
	got, err := eng.Query("//item")
	if err != nil {
		return 0, err
	}
	if len(got) != 48 {
		return 0, fmt.Errorf("//item found %d elements, want 48", len(got))
	}
	if eng.Examined()*100 > walk.Examined() {
		return 0, fmt.Errorf("//item examined %d nodes, not 100 times fewer than the walk's %d", eng.Examined(), walk.Examined())
	}
	return float64(eng.Examined()), nil
}

// versionNodesPerRead is P6: the nodes a warm //item read on a
// published version examines, after 48 appends to the root. A version
// is read as Repository.Snapshot's Query reads it: an engine over the
// version's view, with no labelling, and the version's own index, which
// every snapshot of the version shares. The first read walks the
// version and keeps the list; the next one, on a second engine as on a
// second snapshot, is handed the 48 entries. It must examine at least
// 100 times fewer nodes than the first.
func versionNodesPerRead(scheme string, seed int64) (float64, error) {
	_, docs := workload.BuildCorpus(workload.FewHugeDocs(), seed)
	s, err := update.NewSession(docs[0], core.MustScheme(scheme).Factory())
	if err != nil {
		return 0, err
	}
	for range 48 {
		if _, err := s.AppendChild(s.Document().Root(), "item"); err != nil {
			return 0, err
		}
	}
	var (
		view  xmltree.View
		index xpath.Index
	)
	version := view.Open(s.Document().PublishVersion(1))
	first := xpath.Indexed(version, &index)
	if _, err := first.Query("//item"); err != nil {
		return 0, err
	}
	warm := xpath.Indexed(version, &index)
	got, err := warm.Query("//item")
	if err != nil {
		return 0, err
	}
	if len(got) != 48 {
		return 0, fmt.Errorf("//item found %d elements, want 48", len(got))
	}
	if warm.Examined()*100 > first.Examined() {
		return 0, fmt.Errorf("a warm //item examined %d nodes, not 100 times fewer than the first read's %d", warm.Examined(), first.Examined())
	}
	return float64(warm.Examined()), nil
}

// versionFirstReadNodes is P8: the nodes a version's first //item
// examines, when the live document's index holds item. P6's document
// is read by name live, published as P6's version, given one more root
// item, and published again. That pin hands the new version the live
// lists (xpath.Index.Capture, as Doc.pinCurrent calls it), and what
// the capture examines counts with what the version's first read
// does, so no work hides in the pin. A walk of the version, the first
// read without a capture, must examine at least 100 times more.
func versionFirstReadNodes(scheme string, seed int64) (float64, error) {
	_, docs := workload.BuildCorpus(workload.FewHugeDocs(), seed)
	s, err := update.NewSession(docs[0], core.MustScheme(scheme).Factory())
	if err != nil {
		return 0, err
	}
	for range 48 {
		if _, err := s.AppendChild(s.Document().Root(), "item"); err != nil {
			return 0, err
		}
	}
	if _, err := s.Engine().Query("//item"); err != nil { // the live read
		return 0, err
	}
	s.Document().PublishVersion(1)
	if _, err := s.AppendChild(s.Document().Root(), "item"); err != nil {
		return 0, err
	}
	var (
		view  xmltree.View
		index xpath.Index
	)
	version := view.Open(s.Document().PublishVersion(2))
	captured := index.Capture(s.Index(), &view)
	first := xpath.Indexed(version, &index)
	got, err := first.Query("//item")
	if err != nil {
		return 0, err
	}
	if len(got) != 49 {
		return 0, fmt.Errorf("//item found %d elements, want 49", len(got))
	}
	walk := xpath.Indexed(version, new(xpath.Index))
	if _, err := walk.Query("//item"); err != nil {
		return 0, err
	}
	examined := captured + first.Examined()
	if examined*100 > walk.Examined() {
		return 0, fmt.Errorf("the capture and the first //item examined %d nodes, not 100 times fewer than the walk's %d", examined, walk.Examined())
	}
	return float64(examined), nil
}

// batchHeapBytes is P4: the bytes one repository commit of eight
// element inserts allocates — its nodes and their labels, and nothing it
// hands back. Each reading commits to a fresh repository on a fresh
// clone, and the least of three is kept: what the runtime allocates
// beside the commit only ever adds.
func batchHeapBytes(scheme string, seed int64) (float64, error) {
	base := workload.BaseDocument(seed, 2000)
	least := math.Inf(1)
	for range 3 {
		r := NewRepository()
		if err := r.Open("d", base.Clone(), scheme); err != nil {
			return 0, err
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := r.Batch("d", func(doc *Document, b *Batch) error {
			for range 8 {
				b.AppendChild(doc.Root(), "n")
			}
			return nil
		}); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&ms)
		least = min(least, float64(ms.TotalAlloc-before))
	}
	return least, nil
}

// skewedInsertAllocs is P7: the paper's skewed insertion, every new
// element inserted before the one that was the root's first element
// child, so each lands between the last insert and it. A relabel reads
// its codes from the shared bulk rows, or cuts a row computed anew into
// pieces, a new code is cut from its labelling's chunks, and a new node
// from the session's chunk of four: an insert allocates a quarter of a
// chunk and little else, whichever scheme labels it. The bound, 1.5, is
// to be tightened, never loosened. The
// same run on a clone first fills the rows every document shares (as
// P1's does), so the reading does not depend on what the process
// labelled before.
func skewedInsertAllocs(scheme string, seed int64) (float64, error) {
	const inserts = 2000
	base := workload.BaseDocument(seed, 1000)
	var per float64
	for _, doc := range []*xmltree.Document{base.Clone(), base} {
		s, err := update.NewSession(doc, core.MustScheme(scheme).Factory())
		if err != nil {
			return 0, err
		}
		s.SetAutoVerify(false)
		var ref *xmltree.Node
		for _, c := range doc.Root().Children() {
			if c.Kind() == xmltree.KindElement {
				ref = c
				break
			}
		}
		if ref == nil {
			return 0, fmt.Errorf("the root has no element child")
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for range inserts {
			if _, err := s.InsertBefore(ref, "sk"); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&ms)
		per = float64(ms.Mallocs-before) / inserts
		if err := s.Verify(); err != nil {
			return 0, err
		}
	}
	return per, nil
}

// corpusAllocs is P9: the allocations that generating read_heavy's
// corpus makes. A generated document is built as a decoded one is, its
// nodes and lists cut from one slab and its names and values from one
// string, so the count does not grow with the nodes. No scheme labels
// the corpus. AllocsPerRun builds it once before it counts, so what a
// process allocates on its first use of a package is not read, and the
// collector is off while it counts, so no allocation of the runtime's
// own, made while it collects, is read either.
func corpusAllocs(_ string, seed int64) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, func() { workload.BuildCorpus(workload.FewHugeDocs(), seed) }), nil
}

// pclaimsSection returns docs/EXPERIMENTS.md's "Performance claims"
// section with every run of whitespace folded to one space.
func pclaimsSection(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, doc, ok := strings.Cut(string(data), "\n## Performance claims")
	if !ok {
		t.Fatal(`docs/EXPERIMENTS.md has no "## Performance claims" section`)
	}
	doc, _, _ = strings.Cut(doc, "\n## ")
	return folded(doc)
}

// TestPClaims measures every P-claim, holds each reading to its bound
// and requires the doc to print the claim's row: the readings rounded
// to whole units, each with its bound.
func TestPClaims(t *testing.T) {
	doc := pclaimsSection(t)
	for _, c := range pclaims {
		t.Run(c.id, func(t *testing.T) {
			if raceEnabled && c.raceMoves != "" {
				t.Skipf("measured without the race detector: %s", c.raceMoves)
			}
			var cells []string
			for _, b := range c.bounds {
				got, err := c.measure(b.scheme, c.seed)
				if err != nil {
					t.Fatalf("%s: %v", b.scheme, err)
				}
				t.Logf("%s %s: %.2f (bound %g)", c.id, b.scheme, got, b.max)
				if got > b.max {
					t.Errorf("%s %s: %.2f, over the bound %g", c.id, b.scheme, got, b.max)
				}
				cell := fmt.Sprintf("%g (≤ %g)", math.Round(got), b.max)
				if b.scheme != "" {
					cell = fmt.Sprintf("`%s` %s", b.scheme, cell)
				}
				cells = append(cells, cell)
			}
			row := fmt.Sprintf("| %s | %s | %d | %s |", c.id, c.what, c.seed, strings.Join(cells, ", "))
			if !strings.Contains(doc, folded(row)) {
				t.Errorf("docs/EXPERIMENTS.md, \"Performance claims\", does not print %s as measured:\n%s", c.id, row)
			}
		})
	}
}

// TestPClaimIDsMatchDoc: the claim ids of the "Performance claims"
// table are exactly the claims TestPClaims measures.
func TestPClaimIDsMatchDoc(t *testing.T) {
	var documented, tested []string
	for _, m := range regexp.MustCompile(`\| (P\d+) \|`).FindAllStringSubmatch(pclaimsSection(t), -1) {
		documented = append(documented, m[1])
	}
	for _, c := range pclaims {
		tested = append(tested, c.id)
	}
	if !slices.Equal(documented, tested) {
		t.Errorf("docs/EXPERIMENTS.md's P-claim ids %v, P-claim tests %v", documented, tested)
	}
}
