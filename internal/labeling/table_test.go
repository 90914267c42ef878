package labeling_test

import (
	"errors"
	"maps"
	"math/rand"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// TestTableForget: forgetting a node drops its entry, its attributes'
// and its element descendants' with theirs, and no other; forgetting a
// text node drops nothing.
func TestTableForget(t *testing.T) {
	doc := xmltree.SampleBook()
	var tab labeling.Table[int]
	if err := tab.Reset(doc, doc.LabelledCount()); err != nil {
		t.Fatal(err)
	}
	for i, n := range doc.LabelledNodes() {
		tab.Set(n, i)
	}
	title, publisher := doc.FindElement("title"), doc.FindElement("publisher")
	tab.Forget(title.Children()[0]) // the text "Wayfarer"
	tab.Forget(publisher)
	tab.Forget(title)
	kept := map[string]int{"book": 0, "author": 3}
	for _, n := range doc.LabelledNodes() {
		i, ok := tab.Get(n)
		if want, keep := kept[n.Name()]; ok != keep || (keep && i != want) {
			t.Errorf("%s: entry %d, %v after forgetting title and publisher", n.Name(), i, ok)
		}
	}
	if tab.Len() != len(kept) {
		t.Errorf("%d entries left, want %d", tab.Len(), len(kept))
	}
}

// TestTableMatchesModel: a seeded run of Set, Get, Forget and Reset
// against a map, over enough nodes to fill Reset's block and a dozen
// pages past it. Every Get and Len agrees with the map, and every 5000
// steps so does every node's Get. Slots are handed out in Set order,
// block first, and a Set of a node without an entry takes the slot the
// last Forget emptied, if any. After a Reset every old slot is stale,
// and neither a clone's nodes nor a published version's read labelled.
func TestTableMatchesModel(t *testing.T) {
	doc := workload.BaseDocument(1, 3000)
	nodes := doc.LabelledNodes()
	rng := rand.New(rand.NewSource(1))
	var tab labeling.Table[int]
	model := map[*xmltree.Node]int{}
	var next, most uint32
	var freed []uint32
	reset := func() {
		if err := tab.Reset(doc, rng.Intn(100)); err != nil {
			t.Fatal(err)
		}
		clear(model)
		next, freed = 0, freed[:0]
		for _, n := range nodes {
			if _, ok := tab.Get(n); ok {
				t.Fatalf("%s labelled after Reset", n.Name())
			}
		}
	}
	reset()
	for step := range 60000 {
		n := nodes[rng.Intn(len(nodes))]
		switch r := rng.Intn(10000); {
		case r == 0:
			reset()
		case r < 5000:
			if _, had := model[n]; !had {
				want := next
				if k := len(freed); k > 0 {
					want, freed = freed[k-1], freed[:k-1]
				} else {
					next++
					most = max(most, next)
				}
				tab.Set(n, step)
				if n.LabelSlot() != want {
					t.Fatalf("step %d: Set gave slot %d, want %d", step, n.LabelSlot(), want)
				}
			} else {
				tab.Set(n, step)
			}
			model[n] = step
		case r < 5200:
			n.WalkLabelled(func(x *xmltree.Node) bool {
				if _, had := model[x]; had {
					freed = append(freed, x.LabelSlot())
					delete(model, x)
				}
				return true
			})
			tab.Forget(n)
		default:
			got, ok := tab.Get(n)
			if want, had := model[n]; ok != had || got != want {
				t.Fatalf("step %d: Get(%s) = %d, %v, want %d, %v", step, n.Name(), got, ok, want, had)
			}
		}
		if tab.Len() != len(model) {
			t.Fatalf("step %d: Len %d, want %d", step, tab.Len(), len(model))
		}
		if step%5000 == 0 {
			for _, x := range nodes {
				got, ok := tab.Get(x)
				if want, had := model[x]; ok != had || got != want {
					t.Fatalf("step %d: Get(%s) = %d, %v, want %d, %v", step, x.Name(), got, ok, want, had)
				}
			}
		}
	}
	if len(model) == 0 || most < 100+64*4*(1+2+4) {
		t.Fatalf("the run ended with %d entries, at most %d slots handed out", len(model), most)
	}
	version := xmltree.OpenVersion(doc.PublishVersion(1))
	for _, other := range []*xmltree.Document{doc.Clone(), version} {
		for _, n := range other.LabelledNodes() {
			if _, ok := tab.Get(n); ok {
				t.Fatalf("a copy's %s reads labelled", n.Name())
			}
		}
	}
}

// TestTableSetAllocatesPages: past Reset's block, Set allocates one
// page per page of entries it fills — 64 entries for each of the first
// four pages, twice as many for each of the next four, and so on — and
// their list, nothing per entry.
func TestTableSetAllocatesPages(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	doc := workload.BaseDocument(1, 3000)
	nodes := doc.LabelledNodes()
	pages := 0
	for filled := 0; filled < len(nodes); pages++ {
		filled += 64 << (pages / 4)
	}
	var tab labeling.Table[int]
	allocs := testing.AllocsPerRun(5, func() {
		if err := tab.Reset(doc, 0); err != nil {
			t.Fatal(err)
		}
		for i, n := range nodes {
			tab.Set(n, i)
		}
	})
	if allocs > float64(pages+2) { // the list holds 8 pages, then 16
		t.Errorf("%d Sets past the block allocate %v times, want %d pages and two lists of them", len(nodes), allocs, pages)
	}
}

// TestBuildRefusesHeldDocument: Build refuses a document another
// labelling holds with ErrHeld, and the holder keeps every label. The
// holder may build it again; a labelling that builds another document
// lets go of the one it held.
func TestBuildRefusesHeldDocument(t *testing.T) {
	doc := workload.BaseDocument(1, 500)
	first, second := qed.NewPrefix(), dewey.New()
	if err := first.Build(doc); err != nil {
		t.Fatal(err)
	}
	before := labeling.Snapshot(first, doc)
	if err := second.Build(doc); !errors.Is(err, labeling.ErrHeld) {
		t.Fatalf("a second labelling of a held document: %v, want ErrHeld", err)
	}
	var tab labeling.Table[int]
	if err := tab.Reset(doc, 0); !errors.Is(err, labeling.ErrHeld) {
		t.Fatalf("a table reset onto a held document: %v, want ErrHeld", err)
	}
	if err := first.Build(doc); err != nil {
		t.Fatalf("the holder builds again: %v", err)
	}
	if after := labeling.Snapshot(first, doc); !maps.Equal(before, after) || len(after) != doc.LabelledCount() {
		t.Fatalf("the holder kept %d of %d labels", len(after), len(before))
	}
	if err := second.Build(doc.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := first.Build(doc.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := second.Build(doc); err != nil {
		t.Fatalf("a document its holder let go of: %v", err)
	}
	if err := labeling.VerifyOrder(second, doc); err != nil {
		t.Fatal(err)
	}
}
