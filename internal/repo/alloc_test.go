package repo

import (
	"runtime"
	"strings"
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// The allocation guards below pin down the two properties that make
// persistent versions cheap, so the old copy-the-world cliff cannot
// silently return:
//
//   - pinning a snapshot is O(1) allocations, independent of document
//     size (the commit hook already published the immutable version);
//   - committing a change republishes only the mutated spine, so a
//     flat document costs the same at any width and a deep chain costs
//     O(depth).
//
// Auto-verify is switched off so the numbers measure the version
// machinery, not the per-commit order verification walk.

// allocRepo builds a repository holding one document parsed from xml,
// with versioning activated and the lazy paths warmed, plus a write
// helper that renames the node navigate returns (a content-only op
// that still supersedes the published version).
func allocRepo(t *testing.T, xml string, navigate func(*xmltree.Document) *xmltree.Node) (*Repository, func()) {
	t.Helper()
	off := false
	r := New(Options{AutoVerify: &off})
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("a", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	flip := false
	write := func() {
		flip = !flip
		name := "ta"
		if flip {
			name = "tb"
		}
		if err := r.Update("a", func(s *update.Session) error {
			return s.Rename(navigate(s.Document()), name)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Activate versioning (sticky) and warm every lazy path once.
	s, err := r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	write()
	s, err = r.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	return r, write
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

// TestSnapshotPinAllocsConstant: pinning costs a handful of
// allocations — the Snapshot wrapper and bookkeeping — and the number
// does not grow with document size, whether the pinned version is
// cached or freshly superseded by a commit.
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
			snap, err := r.Snapshot("a")
			if err != nil {
				t.Fatal(err)
			}
			snap.Close()
		})
		fresh[w] = both - writeOnly
	}
	for _, w := range widths {
		if cached[w] > 10 {
			t.Errorf("cached pin at width %d: %.1f allocs, want <= 10", w, cached[w])
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
}

// TestCommitPublishAllocsSpineBounded: with versioning active, a
// commit republishes only the mutated spine — constant allocations on
// a flat document regardless of width, and O(depth) on a chain.
func TestCommitPublishAllocsSpineBounded(t *testing.T) {
	// Width-independence: the root spine of a flat document is one
	// node however many children hang off it.
	wide := map[int]float64{}
	for _, w := range []int{64, 4096} {
		_, write := allocRepo(t, wideXML(w), (*xmltree.Document).Root)
		wide[w] = testing.AllocsPerRun(100, write)
	}
	if d := wide[4096] - wide[64]; d < -3 || d > 3 {
		t.Errorf("flat-doc commit scales with width: %.1f vs %.1f allocs", wide[64], wide[4096])
	}

	// Depth scaling: renaming the leaf of a chain republishes the
	// whole spine — more allocations than the shallow chain, but
	// bounded by a small constant per level, never the whole tree.
	deep := map[int]float64{}
	for _, d := range []int{8, 64} {
		_, write := allocRepo(t, deepXML(d), leafOf)
		deep[d] = testing.AllocsPerRun(100, write)
	}
	const levels = 64 - 8
	grow := deep[64] - deep[8]
	if grow < levels || grow > 4*levels {
		t.Errorf("deep-chain commit growth %.1f allocs over %d levels, want [%d, %d]",
			grow, levels, levels, 4*levels)
	}
}

// TestVerifiedCommitAllocsIndependentOfSize: an 8-op sawtooth batch —
// four appends, four deletes of the previous batch's appends — costs
// the same number of allocations on a flat document of 200 nodes and of
// 20 000. Unlike the guards above, this one leaves auto-verify on,
// because the verification is what it guards: the commit-time check
// compares only the adjacencies the batch created (update.Session's
// verifyCommitted), where the full pass it replaced materialised every
// label of the document on every commit — two allocations per node.
func TestVerifiedCommitAllocsIndependentOfSize(t *testing.T) {
	allocs := map[int]float64{}
	for _, w := range []int{200, 20000} {
		r := New(Options{})
		doc, err := xmltree.ParseString(wideXML(w))
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.Open("a", doc, "qed")
		if err != nil {
			t.Fatal(err)
		}
		commit := func() {
			if err := d.Update(func(s *update.Session) error {
				root := s.Document().Root()
				b := s.Batch()
				for i := 0; i < 4; i++ {
					b.AppendChild(root, "item")
				}
				kids := root.Children()
				for _, k := range kids[len(kids)-4:] {
					if k.Name() == "item" {
						b.Delete(k)
					}
				}
				_, err := b.Commit()
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		// The first commit pays the session's one full pass and sizes
		// the reused slices.
		commit()
		commit()
		allocs[w] = testing.AllocsPerRun(50, commit)
		if c := d.Counters(); c.FullVerifies != 1 || c.Verifies != c.Batches {
			t.Fatalf("width %d: %d commits, %d verified, %d by the full pass; want every commit verified and one full pass",
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
func sectionsXML(t *testing.T, nodes int) string {
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
// a freshly committed version — pin, Query("//item"), Close — costs the
// same at 200 nodes and at 20 000, in allocations and in bytes. The
// scan visits the persistent tree and builds view shells only for the
// sibling lists on the way to its four matches; building a shell for
// every node it visits is 128 bytes a node, on every new version.
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
		read()
		allocs[size] = testing.AllocsPerRun(50, read) - testing.AllocsPerRun(50, write)
		bytes[size] = bytesPerRun(50, read) - bytesPerRun(50, write)
	}
	if d := allocs[20000] - allocs[200]; d < -3 || d > 3 {
		t.Errorf("snapshot read scales with document size: %.1f allocs at 200 nodes, %.1f at 20000", allocs[200], allocs[20000])
	}
	if d := bytes[20000] - bytes[200]; d < -1024 || d > 1024 {
		t.Errorf("snapshot read scales with document size: %.0f bytes at 200 nodes, %.0f at 20000", bytes[200], bytes[20000])
	}
	t.Logf("snapshot read: %.1f allocs, %.0f bytes at 200 nodes; %.1f allocs, %.0f bytes at 20000", allocs[200], bytes[200], allocs[20000], bytes[20000])
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
// program, the record, the frame — is kept from commit to commit, so a
// transaction that creates nothing allocates a small constant, the same
// for 4 ops and for 64: in memory, logged, and replayed from the record.
func TestCommitCarriersAllocNothing(t *testing.T) {
	// A committed transaction hands back a BatchResult and its New slice;
	// a replayed one makes a string of the record's document name.
	most := map[string]float64{"Repository.Batch": 2, "DurableRepository.Batch": 2, "applyRecord": 1}
	allocs := map[string]map[int]float64{"Repository.Batch": {}, "DurableRepository.Batch": {}, "applyRecord": {}}
	for _, k := range []int{4, 64} {
		r := New(Options{})
		if _, err := r.Open("carriers", carrierDoc(t), "qed"); err != nil {
			t.Fatal(err)
		}
		var ops []update.Op
		var payload []byte
		if err := r.View("carriers", func(s *update.Session) error {
			b := s.Batch()
			carrierOps(s.Document(), b, k)
			ops = b.Ops()
			enc, err := update.EncodeOps(s.Document(), ops)
			payload = appendRecord(nil, record{kind: RecBatch, parts: []recordPart{{"carriers", enc}}})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		commit := func() {
			if _, err := r.Batch("carriers", ops); err != nil {
				t.Fatal(err)
			}
		}
		commit()
		allocs["Repository.Batch"][k] = testing.AllocsPerRun(100, commit)

		d, err := OpenDurable(t.TempDir(), DurableOptions{Sync: wal.SyncAsync, AutoCheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		if err := d.Open("carriers", carrierDoc(t), "qed"); err != nil {
			t.Fatal(err)
		}
		durable := func() {
			if _, err := d.Batch("carriers", func(doc *xmltree.Document, b *update.Batch) error {
				carrierOps(doc, b, k)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		durable()
		allocs["DurableRepository.Batch"][k] = testing.AllocsPerRun(100, durable)

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

// mapSink keeps the maps TestCommitAllocatesWhatItCreates measures on
// the heap, where MultiBatch's are.
var mapSink [2]any

// insertAllocs is what a transaction of n element inserts on a qed
// document may allocate: the n nodes, two allocations per new code (the
// code and the label that holds it), and a constant — the BatchResult,
// its New slice, the slab the result's detached copies are cut from, and
// one to spare for a child list that grows.
func insertAllocs(n int) float64 { return float64(n + 2*n + 4) }

// TestCommitAllocatesWhatItCreates: a commit pays for the nodes it
// inserts, the labels it assigns and the result it returns — not for
// maps, batches, record buffers or a clone per created node. A
// two-document MultiBatch pays that twice, plus the two maps its
// signature promises.
func TestCommitAllocatesWhatItCreates(t *testing.T) {
	const inserts = 16
	r := New(Options{})
	for _, name := range []string{"left", "right"} {
		if _, err := r.Open(name, carrierDoc(t), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	queue := func(doc *xmltree.Document, b *update.Batch) {
		for i := 0; i < inserts; i++ {
			b.AppendChild(doc.Root(), "n")
		}
	}
	var ops []update.Op
	if err := r.View("left", func(s *update.Session) error {
		b := s.Batch()
		queue(s.Document(), b)
		ops = b.Ops()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	single := func() {
		if _, err := r.Batch("left", ops); err != nil {
			t.Fatal(err)
		}
	}
	single()
	if got := testing.AllocsPerRun(100, single); got > insertAllocs(inserts) {
		t.Errorf("a %d-insert batch allocates %.1f, want <= %.0f", inserts, got, insertAllocs(inserts))
	}

	names := []string{"left", "right"}
	multi := func() {
		if _, err := r.MultiBatch(names, func(m map[string]*MultiDoc) error {
			queue(m["left"].Document(), m["left"].Batch())
			queue(m["right"].Document(), m["right"].Batch())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	multi()
	// The two maps, as this runtime allocates them.
	maps := testing.AllocsPerRun(100, func() {
		in := make(map[string]*MultiDoc, 2)
		out := make(map[string]*update.BatchResult, 2)
		in["left"], in["right"], out["left"], out["right"] = nil, nil, nil, nil
		mapSink = [2]any{in, out}
	})
	if got, most := testing.AllocsPerRun(100, multi), 2*insertAllocs(inserts)+maps; got > most {
		t.Errorf("a two-document MultiBatch of %d inserts each allocates %.1f, want <= %.0f (%.0f for its maps)", inserts, got, most, maps)
	} else {
		t.Logf("two-document MultiBatch: %.1f allocs, %.0f of them its maps", got, maps)
	}
}
