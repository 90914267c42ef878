package labeling_test

import (
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/xmltree"
)

// TestTableForget: forgetting a node drops its entry, its attributes'
// and its element descendants' with theirs, and no other; forgetting a
// text node drops nothing.
func TestTableForget(t *testing.T) {
	doc := xmltree.SampleBook()
	var tab labeling.Table[int]
	tab.Reset(doc.LabelledCount())
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
	for n, i := range tab.All() {
		if want, keep := kept[n.Name()]; !keep || i != want {
			t.Errorf("All yields %s = %d", n.Name(), i)
		}
	}
}
