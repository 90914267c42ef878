package repo

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// The allocation guards below pin down the properties that make
// persistent versions cheap, so the old copy-the-world cliff cannot
// silently return:
//
//   - a commit publishes nothing: it allocates the same whether or not
//     a snapshot was ever taken;
//   - pinning a state already pinned is O(1) allocations, independent
//     of document size;
//   - the first pin after a commit republishes only the mutated spine,
//     so a flat document costs the same at any width and a deep chain
//     costs O(depth).
//
// Every commit verifies order, but a rename changes no label adjacency,
// so the numbers measure the version machinery.

// allocRepo builds a repository holding one document parsed from xml,
// with a version pinned and the lazy paths warmed, plus a write helper
// that renames the node navigate returns (a content-only op that still
// supersedes the published version).
func allocRepo(t testing.TB, xml string, navigate func(*xmltree.Document) *xmltree.Node) (*Repository, func()) {
	t.Helper()
	r, write := unpinnedRepo(t, xml, navigate)
	// Publish a version and warm every lazy path once.
	pinA(t, r)
	write()
	pinA(t, r)
	return r, write
}

// unpinnedRepo is allocRepo with no version ever pinned.
func unpinnedRepo(t testing.TB, xml string, navigate func(*xmltree.Document) *xmltree.Node) (*Repository, func()) {
	t.Helper()
	r := New()
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Open("a", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	flip := false
	write := func() {
		flip = !flip
		name := "ta"
		if flip {
			name = "tb"
		}
		if _, err := r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
			b.Rename(navigate(doc), name)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r, write
}

// pinA takes a snapshot of document "a" and closes it.
func pinA(t testing.TB, r *Repository) {
	t.Helper()
	snap, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
}

func wideXML(width int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < width; i++ {
		sb.WriteString("<c/>")
	}
	sb.WriteString("</r>")
	return sb.String()
}

func deepXML(depth int) string {
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<n>")
	}
	sb.WriteString("<leaf/>")
	for i := 0; i < depth; i++ {
		sb.WriteString("</n>")
	}
	return sb.String()
}

func leafOf(d *xmltree.Document) *xmltree.Node {
	n := d.Root()
	for c := n.FirstChild(); c != nil; c = n.FirstChild() {
		n = c
	}
	return n
}

// TestSnapshotPinAllocsConstant: pinning a cached version of one
// document costs one allocation, the Snapshot, which holds its one
// entry (two while the entries were always a slice of their own, five
// while a snapshot also copied its names, listed its documents and kept
// a map of entries); a snapshot of several documents adds its slice of
// entries. The number does not grow with document size,
// whether the pinned version is cached or freshly superseded by a
// commit: a fresh pin also publishes the commit's spine, which on a
// flat document is its root at any width. Names repeated and out of
// order cost nothing more.
func TestSnapshotPinAllocsConstant(t *testing.T) {
	widths := []int{64, 2048}
	cached := map[int]float64{}
	fresh := map[int]float64{}
	for _, w := range widths {
		r, write := allocRepo(t, wideXML(w), (*xmltree.Document).Root)
		cached[w] = testing.AllocsPerRun(100, func() {
			snap, err := r.Snapshot("a")
			if err != nil {
				t.Fatal(err)
			}
			snap.Close()
		})
		writeOnly := testing.AllocsPerRun(100, write)
		both := testing.AllocsPerRun(100, func() {
			write()
			pinA(t, r)
		})
		fresh[w] = both - writeOnly
	}
	for _, w := range widths {
		if cached[w] != 1 {
			t.Errorf("cached pin at width %d: %.1f allocs, want 1", w, cached[w])
		}
		if fresh[w] > 15 {
			t.Errorf("fresh pin at width %d: %.1f allocs, want <= 15", w, fresh[w])
		}
	}
	if d := cached[2048] - cached[64]; d < -2 || d > 2 {
		t.Errorf("cached pin scales with width: %.1f vs %.1f allocs", cached[64], cached[2048])
	}
	if d := fresh[2048] - fresh[64]; d < -4 || d > 4 {
		t.Errorf("fresh pin scales with width: %.1f vs %.1f allocs", fresh[64], fresh[2048])
	}

	r := snapRepo(t, "a", "b")
	var names []string
	pin := func() {
		snap, err := r.Snapshot("b", "a", "a")
		if err != nil {
			t.Fatal(err)
		}
		names = snap.Names()
		snap.Close()
	}
	pin()
	pinAllocs := testing.AllocsPerRun(100, func() {
		snap, err := r.Snapshot("b", "a", "a")
		if err != nil {
			t.Fatal(err)
		}
		snap.Close()
	})
	if pinAllocs != 2 {
		t.Errorf(`Snapshot("b", "a", "a"): %.1f allocs, want 2`, pinAllocs)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf(`Snapshot("b", "a", "a").Names() = %v, want [a b]`, names)
	}
}

// TestBatchAllocsUnchangedBySnapshot: a commit publishes nothing, so
// after a snapshot has been taken a Batch allocates exactly what it
// allocates on a repository that never took one — on a chain 64 deep,
// whose spine is 65 nodes, as on a flat document. (While a first
// snapshot switched every later commit to publishing its spine, the
// chain's Batch allocated 56 and more over.)
func TestBatchAllocsUnchangedBySnapshot(t *testing.T) {
	for _, c := range []struct {
		name     string
		xml      string
		navigate func(*xmltree.Document) *xmltree.Node
	}{
		{"chain 64 deep", deepXML(64), leafOf},
		{"flat, 64 wide", wideXML(64), (*xmltree.Document).Root},
	} {
		_, never := unpinnedRepo(t, c.xml, c.navigate)
		never()
		_, after := allocRepo(t, c.xml, c.navigate)
		unpinned, pinned := testing.AllocsPerRun(100, never), testing.AllocsPerRun(100, after)
		if pinned != unpinned {
			t.Errorf("%s: a Batch after a snapshot allocates %.1f, on a repository that never took one %.1f", c.name, pinned, unpinned)
		}
	}
}

// TestCommitPublishAllocsSpineBounded: the first pin after a commit
// republishes only the mutated spine — write and pin together cost
// constant allocations on a flat document regardless of width, and
// O(depth) on a chain.
func TestCommitPublishAllocsSpineBounded(t *testing.T) {
	writePin := func(xml string, navigate func(*xmltree.Document) *xmltree.Node) float64 {
		r, write := allocRepo(t, xml, navigate)
		return testing.AllocsPerRun(100, func() {
			write()
			pinA(t, r)
		})
	}
	// Width-independence: the root spine of a flat document is one
	// node however many children hang off it.
	wide := map[int]float64{}
	for _, w := range []int{64, 4096} {
		wide[w] = writePin(wideXML(w), (*xmltree.Document).Root)
	}
	if d := wide[4096] - wide[64]; d < -3 || d > 3 {
		t.Errorf("flat-doc commit and pin scale with width: %.1f vs %.1f allocs", wide[64], wide[4096])
	}

	// Depth scaling: renaming the leaf of a chain republishes the
	// whole spine at the pin — more allocations than the shallow chain,
	// but bounded by a small constant per level, never the whole tree.
	deep := map[int]float64{}
	for _, d := range []int{8, 64} {
		deep[d] = writePin(deepXML(d), leafOf)
	}
	const levels = 64 - 8
	grow := deep[64] - deep[8]
	if grow < levels || grow > 4*levels {
		t.Errorf("deep-chain commit and pin growth %.1f allocs over %d levels, want [%d, %d]",
			grow, levels, levels, 4*levels)
	}
}

// TestVerifiedCommitAllocsIndependentOfSize: an 8-op sawtooth batch —
// four appends, four deletes of the previous batch's appends — costs
// the same number of allocations on a flat document of 200 nodes and of
// 20 000. Unlike the guards above, this one inserts and deletes,
// because the verification is what it guards: the commit-time check
// compares only the adjacencies the batch created (update.Session's
// verifyCommitted), where the full pass it replaced materialised every
// label of the document on every commit — two allocations per node.
func TestVerifiedCommitAllocsIndependentOfSize(t *testing.T) {
	allocs := map[int]float64{}
	for _, w := range []int{200, 20000} {
		r := New()
		doc, err := xmltree.ParseString(wideXML(w))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Open("a", doc, "qed"); err != nil {
			t.Fatal(err)
		}
		commit := func() {
			if _, err := r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
				root := doc.Root()
				for i := 0; i < 4; i++ {
					b.AppendChild(root, "item")
				}
				kids := root.Children()
				for _, k := range kids[len(kids)-4:] {
					if k.Name() == "item" {
						b.Delete(k)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		// The first commits size the reused slices.
		commit()
		commit()
		allocs[w] = testing.AllocsPerRun(50, commit)
		if c := counters(t, r, "a"); c.FullVerifies != 0 || c.Verifies != c.Batches {
			t.Fatalf("width %d: %d commits, %d verified, %d by the full pass; want every commit verified and none by the full pass",
				w, c.Batches, c.Verifies, c.FullVerifies)
		}
	}
	if d := allocs[20000] - allocs[200]; d < -4 || d > 4 {
		t.Errorf("verified commit scales with document size: %.1f allocs at 200 nodes, %.1f at 20000", allocs[200], allocs[20000])
	}
}

// sectionsXML is a document of about nodes labellable nodes with the
// same top in every size: a root with eight sections and four items,
// the sections sharing the rest of the budget as bushy subtrees of
// fan-out at most 8.
func sectionsXML(t testing.TB, nodes int) string {
	t.Helper()
	root := xmltree.NewElement("r")
	for i := 0; i < 8; i++ {
		sec := xmltree.Generate(xmltree.GenOptions{Seed: int64(i), MaxDepth: 12, MaxChildren: 8,
			AttrProb: 0.3, TargetNodes: nodes / 8}).Root()
		sec.Detach()
		if err := root.AppendChild(sec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := root.AppendChild(xmltree.NewElement("item")); err != nil {
			t.Fatal(err)
		}
	}
	return xmltree.OuterXML(root)
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSnapshotQueryAllocsIndependentOfSize: the first snapshot read of
// a freshly committed version — Query("//item") on a fresh pin — costs
// the same at 200 nodes and at 20 000, in allocations and in bytes. The
// commit, the pin (which publishes the commit's spine, deeper in the
// larger document) and the Close are measured on their own and taken
// off, so what is compared is the query. The
// scan visits the persistent tree and builds view shells only for the
// sibling lists on the way to its four matches; building a shell for
// every node it visits is a node's 88 bytes and a list entry, for every
// node, on every new version.
func TestSnapshotQueryAllocsIndependentOfSize(t *testing.T) {
	sizes := []int{200, 20000}
	allocs, bytes := map[int]float64{}, map[int]float64{}
	for _, size := range sizes {
		r, write := allocRepo(t, sectionsXML(t, size), leafOf)
		read := func() {
			write()
			snap, err := r.Snapshot("a")
			if err != nil {
				t.Fatal(err)
			}
			nodes, err := snap.Query("a", "//item")
			snap.Close()
			if err != nil || len(nodes) != 4 || nodes[0].Parent().Name() != "r" {
				t.Fatalf("size %d: //item returned %d nodes, %v", size, len(nodes), err)
			}
		}
		writePin := func() {
			write()
			pinA(t, r)
		}
		read()
		allocs[size] = testing.AllocsPerRun(50, read) - testing.AllocsPerRun(50, writePin)
		bytes[size] = bytesPerRun(50, read) - bytesPerRun(50, writePin)
	}
	if d := allocs[20000] - allocs[200]; d < -3 || d > 3 {
		t.Errorf("snapshot read scales with document size: %.1f allocs at 200 nodes, %.1f at 20000", allocs[200], allocs[20000])
	}
	if d := bytes[20000] - bytes[200]; d < -1024 || d > 1024 {
		t.Errorf("snapshot read scales with document size: %.0f bytes at 200 nodes, %.0f at 20000", bytes[200], bytes[20000])
	}
	t.Logf("snapshot read: %.1f allocs, %.0f bytes at 200 nodes; %.1f allocs, %.0f bytes at 20000", allocs[200], bytes[200], allocs[20000], bytes[20000])
}

// TestWarmSnapshotReadAllocsNothing: a version keeps the list its first
// //item built, so a warm //item allocates nothing — on the snapshot
// that read first, and on a second snapshot of the same version, whose
// own first read is warm too. Both are handed the same list. (While
// every snapshot read walked its version, each read allocated its
// answer.)
func TestWarmSnapshotReadAllocsNothing(t *testing.T) {
	r, _ := allocRepo(t, sectionsXML(t, 2000), leafOf)
	query := func(snap *Snapshot) []*xmltree.Node {
		nodes, err := snap.Query("a", "//item")
		if err != nil || len(nodes) != 4 {
			t.Fatalf("//item returned %d nodes, %v", len(nodes), err)
		}
		return nodes
	}
	first, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	list := query(first)
	second, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	shared := query(second)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("a second snapshot's first //item of a read version: %d allocs, want 0", allocs)
	}
	if &shared[0] != &list[0] {
		t.Error("two snapshots of one version were handed different lists")
	}
	if allocs := testing.AllocsPerRun(100, func() { query(first) }); allocs != 0 {
		t.Errorf("warm snapshot //item: %.1f allocs, want 0", allocs)
	}
}

// carrierDoc is a flat document of 64 children, each with an attribute
// "a", and carrierOps a transaction of k ops on it that creates nothing:
// renames and sets of the existing attribute, alternating.
func carrierDoc(t testing.TB) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(strings.Replace(wideXML(64), "<c/>", `<c a="0"/>`, -1))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func carrierOps(doc *xmltree.Document, b *update.Batch, k int) {
	for i, c := range doc.Root().Children()[:k] {
		if i%2 == 0 {
			b.Rename(c, "d")
		} else {
			b.SetAttr(c, "a", "1")
		}
	}
}

// TestCommitCarriersAllocNothing: what carries a transaction from the
// caller to the log and back — the op queue, the MultiDocs, the encoded
// program, the record, the frame, a grouped fsync's wait — is kept from
// commit to commit, so a transaction that creates nothing allocates
// nothing, for 4 ops as for 64: in memory, logged (asynchronously and
// under grouped sync), and replayed from the record.
func TestCommitCarriersAllocNothing(t *testing.T) {
	// A committed transaction hands back a count, not a result slice; a
	// replayed one resolves the record's document name to the open
	// document's, and its one-byte names and values are the runtime's.
	const grouped = "DurableRepository.Batch (grouped)"
	most := map[string]float64{"Repository.Batch": 0, "DurableRepository.Batch": 0, grouped: 0, "applyRecord": 0}
	allocs := map[string]map[int]float64{"Repository.Batch": {}, "DurableRepository.Batch": {}, grouped: {}, "applyRecord": {}}
	for _, k := range []int{4, 64} {
		r := New()
		if err := r.Open("carriers", carrierDoc(t), "qed"); err != nil {
			t.Fatal(err)
		}
		var payload []byte
		if err := r.View("carriers", func(s *update.Session) error {
			b := s.Batch()
			carrierOps(s.Document(), b, k)
			enc, err := update.EncodeOps(s.Document(), b.Ops())
			payload = appendRecord(nil, record{kind: RecBatch, parts: []recordPart{{"carriers", enc}}})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		build := func(doc *xmltree.Document, b *update.Batch) error {
			carrierOps(doc, b, k)
			return nil
		}
		commit := func() {
			if _, err := r.Batch("carriers", build); err != nil {
				t.Fatal(err)
			}
		}
		commit()
		allocs["Repository.Batch"][k] = testing.AllocsPerRun(100, commit)

		for path, sync := range map[string]wal.SyncPolicy{"DurableRepository.Batch": wal.SyncAsync, grouped: wal.SyncGrouped} {
			d, err := OpenDurable(t.TempDir(), DurableOptions{Sync: sync, AutoCheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			if err := d.Open("carriers", carrierDoc(t), "qed"); err != nil {
				t.Fatal(err)
			}
			durable := func() {
				if _, err := d.Batch("carriers", build); err != nil {
					t.Fatal(err)
				}
			}
			durable()
			allocs[path][k] = testing.AllocsPerRun(100, durable)
		}

		replay := func() {
			if err := applyRecord(r, payload); err != nil {
				t.Fatal(err)
			}
		}
		replay()
		allocs["applyRecord"][k] = testing.AllocsPerRun(100, replay)
	}
	for path, a := range allocs {
		t.Logf("%s: %.1f allocs at 4 ops, %.1f at 64", path, a[4], a[64])
		if d := a[64] - a[4]; d < -1 || d > 1 {
			t.Errorf("%s: allocations grow with the transaction: %.1f at 4 ops, %.1f at 64", path, a[4], a[64])
		}
		if a[64] > most[path] {
			t.Errorf("%s: %.1f allocs for a transaction that creates nothing, want <= %.0f", path, a[64], most[path])
		}
	}
}

// mapSink keeps the map TestCommitAllocatesWhatItCreates measures on the
// heap, where MultiBatch's is.
var mapSink any

// insertAllocs is what a transaction of n element inserts on a qed
// document may allocate — per transaction, not per node: at most ⌈n/4⌉
// chunks of its session's nodes (four to a chunk), at most one chunk of code
// digits and one of code headers (labels.QCodes; the codes here stay
// short), and one to spare for a child list that grows.
func insertAllocs(n int) float64 { return float64((n+3)/4 + 2 + 1) }

// TestCommitAllocatesWhatItCreates: a commit pays for the nodes it
// inserts and the labels it assigns — by the transaction, not by the
// node — and not for a result, maps, batches, record buffers or a copy
// of a created node. A two-document MultiBatch pays that twice, plus
// its MultiDocs and the one map its build callback is handed.
func TestCommitAllocatesWhatItCreates(t *testing.T) {
	const inserts = 16
	r := New()
	names := []string{"left", "right"}
	for _, name := range names {
		if err := r.Open(name, carrierDoc(t), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	// Each insert lands behind a child of the root picked at random, so
	// the codes stay short however many transactions run. (A QED code
	// inserted again and again at one place grows a digit each time — the
	// paper's skewed case — and past 256 digits each is a chunk of its
	// own.)
	rng := rand.New(rand.NewSource(1))
	queue := func(doc *xmltree.Document, b *update.Batch) error {
		kids := doc.Root().Children()
		for range inserts {
			b.InsertAfter(kids[rng.Intn(len(kids))], "n")
		}
		return nil
	}
	single := func() {
		if _, err := r.Batch("left", queue); err != nil {
			t.Fatal(err)
		}
	}
	single()
	if got := testing.AllocsPerRun(100, single); got > insertAllocs(inserts) {
		t.Errorf("a %d-insert batch allocates %.1f, want <= %.0f", inserts, got, insertAllocs(inserts))
	} else {
		t.Logf("a %d-insert batch: %.1f allocs", inserts, got)
	}

	multi := func() {
		if _, err := r.MultiBatch(names, func(m map[string]*MultiDoc) error {
			for _, name := range names {
				if err := queue(m[name].Document(), m[name].Batch()); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	multi()
	// The MultiDocs and the map, as this runtime allocates them.
	carriers := testing.AllocsPerRun(100, func() {
		mds := make([]MultiDoc, 2)
		m := make(map[string]*MultiDoc, 2)
		m["left"], m["right"] = &mds[0], &mds[1]
		mapSink = m
	})
	if got, most := testing.AllocsPerRun(100, multi), 2*insertAllocs(inserts)+carriers; got > most {
		t.Errorf("a two-document MultiBatch of %d inserts each allocates %.1f, want <= %.0f (%.0f for its MultiDocs and map)", inserts, got, most, carriers)
	} else {
		t.Logf("two-document MultiBatch: %.1f allocs, %.0f of them its MultiDocs and map", got, carriers)
	}
}

// queryAllocs opens xml as a document and returns what a lock-held
// QueryFunc(path) allocates, checking that it finds want nodes: the
// first read on the fresh document, and then a warm one.
func queryAllocs(t *testing.T, xml, path string, want int) (first, warm float64) {
	t.Helper()
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.Open("a", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if err := r.QueryFunc("a", path, func(nodes []*xmltree.Node) error {
			if len(nodes) != want {
				t.Fatalf("%s found %d nodes, want %d", path, len(nodes), want)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), testing.AllocsPerRun(50, read)
}

// itemsAt is a chain depth deep with items <item/> leaves at its bottom.
func itemsAt(depth, items int) string {
	return strings.Replace(deepXML(depth), "<leaf/>", strings.Repeat("<item/>", items), 1)
}

// TestQueryAllocatesItsAnswer: a lock-held QueryFunc by name reads the
// document's element index and hands fn a slice of the name's list, so
// a warm //item allocates nothing, whatever its answer's size (it
// allocated its answer once while every read walked the tree). The
// first read of a name builds the list with one walk, which allocates
// exactly the list, once: nothing for the parse, the contexts or the
// scan's chain, nor for the index's first entry, which the index holds
// in itself (one more while it did not), so a chain 64 deep costs what
// one 8 deep does, and a name the document lacks costs nothing (its
// list is empty). The scan holds up to 64 matches in itself and hands out
// one exact-size copy; a larger answer moves to the heap once at 128
// and grows from there, so no list costs more than an append from nil
// would.
func TestQueryAllocatesItsAnswer(t *testing.T) {
	for _, c := range []struct {
		depth, items int
		first        float64
	}{{8, 48, 1}, {64, 48, 1}, {8, 0, 0}, {8, 64, 1}, {8, 65, 1}, {8, 200, 2}} {
		// The least of three first reads, each on a fresh repository:
		// what the runtime allocates beside the read only adds.
		first, warm := math.Inf(1), 0.0
		for range 3 {
			f, w := queryAllocs(t, itemsAt(c.depth, c.items), "//item", c.items)
			first, warm = min(first, f), max(warm, w)
		}
		if first != c.first {
			t.Errorf("depth %d: the first //item of %d matches allocates %v, want %v (its list)", c.depth, c.items, first, c.first)
		}
		if warm != 0 {
			t.Errorf("depth %d: a warm //item of %d matches allocates %v, want 0", c.depth, c.items, warm)
		}
	}
}

// recoveryDir is a checkpointed directory of docs documents of the
// benchmark's ckpt_restart shape (96 nodes, mixed, qed) with a live log of
// records batches on the first four: each appends eight items to a
// document's root, or deletes eight once 24 stand, the sawtooth that
// workload commits.
func recoveryDir(t *testing.T, docs, records int) string {
	t.Helper()
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAsync, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	names, trees := workload.BuildCorpus(workload.Profile{Docs: docs, Nodes: 96, Shape: workload.ShapeMixed}, 1)
	for i, name := range names {
		if err := d.Open(name, trees[i], "qed"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shrinking := map[string]bool{}
	for j := range records {
		name := names[j%4]
		if _, err := d.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
			root := doc.Root()
			var items []*xmltree.Node
			for _, k := range root.Children() {
				if k.Name() == "item" {
					items = append(items, k)
				}
			}
			shrinking[name] = len(items) >= 24 || shrinking[name] && len(items) > 0
			for i := range 8 {
				if shrinking[name] {
					b.Delete(items[len(items)-1-i])
				} else {
					b.AppendChild(root, "item")
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// recoveryAllocs is what one recovery of dir allocates, the mean of
// runs. testing.AllocsPerRun would run it at GOMAXPROCS 1, and so at one
// worker.
func recoveryAllocs(t *testing.T, dir string, serial bool) float64 {
	t.Helper()
	once := func() {
		c := &durableCore{dir: dir, opts: DurableOptions{AutoCheckpointBytes: -1}, serialRecovery: serial}
		if err := c.recover(); err != nil {
			t.Fatal(err)
		}
		if err := c.log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	once()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		once()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// TestRecoveryAllocatesWhatItRebuilds: a recovery allocates, for each
// document, what the document is — its file handle, slab, session,
// labelling and label map — and for each replayed record what the record
// creates, on the parallel worker pool and on the serial one alike. The
// slopes are measured on directories that differ only in document count,
// then only in record count:
//   - at most 26 a document (22.4 measured; 30.4 while the loader
//     stat'ed every file into a fresh buffer, both directory listings
//     made an entry object for every file, the manifest copied every
//     name and file, and a document and its labelling each made an
//     object that was thrown away);
//   - at most 2.25 a replayed record (1.75 measured; 3.75 on the
//     parallel pool and 2.75 on the serial one while routing copied the
//     record's name and a lane's payload was a copy of its own).
func TestRecoveryAllocatesWhatItRebuilds(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const fewDocs, manyDocs, fewRecords, manyRecords = 16, 48, 48, 240
	base := recoveryDir(t, fewDocs, fewRecords)
	moreDocs := recoveryDir(t, manyDocs, fewRecords)
	moreRecords := recoveryDir(t, fewDocs, manyRecords)
	for _, serial := range []bool{false, true} {
		at := recoveryAllocs(t, base, serial)
		perDoc := (recoveryAllocs(t, moreDocs, serial) - at) / (manyDocs - fewDocs)
		perRecord := (recoveryAllocs(t, moreRecords, serial) - at) / (manyRecords - fewRecords)
		t.Logf("serial %v: %.0f allocs for %d documents and %d records; %.2f a document, %.2f a record",
			serial, at, fewDocs, fewRecords, perDoc, perRecord)
		if perDoc > 26 {
			t.Errorf("serial %v: a recovery allocates %.2f a document, want <= 26", serial, perDoc)
		}
		if perRecord > 2.25 {
			t.Errorf("serial %v: a recovery allocates %.2f a replayed record, want <= 2.25", serial, perRecord)
		}
	}
}

// TestNewVersionCostsWhatChanged: read_heavy's first document
// (workload.FewHugeDocs, seed 1), with //item held by a live read, and
// commits of eight root item appends, or eight deletes once 48 stand.
// A commit, the pin that publishes it, the version's first //item and
// Close cost at most eleven allocations a version: the commit's nodes
// and codes, the Snapshot, the version, the spine's copies and lists,
// the new leaves' slabs of four, the root's shells and the version's
// list of item, which the pin copies from the live one. (18 while the
// first //item walked the version, every new leaf was published on
// its own, expanding the document node allocated its child's shell and
// list, an index's first entry was an allocation and a version's view
// and index were one apart from its descriptor.) A cached pin costs
// one.
func TestNewVersionCostsWhatChanged(t *testing.T) {
	_, docs := workload.BuildCorpus(workload.FewHugeDocs(), 1)
	r := New()
	if err := r.Open("a", docs[0], "qed"); err != nil {
		t.Fatal(err)
	}
	if err := r.QueryFunc("a", "//item", func([]*xmltree.Node) error { return nil }); err != nil {
		t.Fatal(err)
	}
	items, shrinking := 0, false
	version := func() {
		shrinking = items == 48 || shrinking && items > 0
		if _, err := r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
			root := doc.Root()
			kids := root.Children()
			for i := range 8 {
				if shrinking {
					b.Delete(kids[len(kids)-1-i])
				} else {
					b.AppendChild(root, "item")
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if shrinking {
			items -= 8
		} else {
			items += 8
		}
		snap, err := r.Snapshot("a")
		if err != nil {
			t.Fatal(err)
		}
		if nodes, err := snap.Query("a", "//item"); err != nil || len(nodes) != items {
			t.Fatalf("//item returned %d nodes, %v; want %d", len(nodes), err, items)
		}
		snap.Close()
	}
	for range 12 { // one sawtooth cycle sizes what commits reuse
		version()
	}
	if got := testing.AllocsPerRun(120, version); got > 11 {
		t.Errorf("commit, pin, first //item and close: %.2f allocs a version, want at most 11", got)
	} else {
		t.Logf("commit, pin, first //item and close: %.2f allocs a version", got)
	}
	if got := testing.AllocsPerRun(100, func() { pinA(t, r) }); got != 1 {
		t.Errorf("a cached pin: %.1f allocs, want 1", got)
	}
}
