package update_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"xmldyn/internal/labels"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// TestNamesWrittenOnce: a tree image or an op program spells a name the
// first time, and while the name holds one of the 64 slots of the
// table, refers to it with one byte (docs/DURABILITY.md §6). Literals
// take the slots in turn, so the 65th evicts the first.
func TestNamesWrittenOnce(t *testing.T) {
	t.Run("program", func(t *testing.T) {
		doc, err := xmltree.ParseString("<r/>")
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]update.Op, 8)
		for i := range ops {
			ops[i] = update.AppendChildOp(doc.Root(), "item")
		}
		data, err := update.EncodeOps(doc, ops)
		if err != nil {
			t.Fatal(err)
		}
		// A count; the first op a kind byte, a two-byte path and item
		// spelt (a length byte and 4); the other seven a kind byte that
		// marks the target and the name as the last op's.
		if want := 1 + (1 + 2 + 5) + 7; len(data) != want {
			t.Errorf("8 appends of item encode in %d bytes, want %d: %x", len(data), want, data)
		}
	})

	t.Run("eviction", func(t *testing.T) {
		// r and n0..n99 are literals 0 to 100: slot i%64 ends holding
		// literal i, so n36..n99 are live and n0..n35 evicted.
		root := xmltree.NewElement("r")
		var want []byte
		child := func(name string, field ...byte) {
			if err := root.AppendChild(xmltree.NewElement(name)); err != nil {
				t.Fatal(err)
			}
			want = append(append(want, byte(xmltree.KindElement)), field...)
		}
		literal := func(name string) []byte { return append([]byte{byte(2 * len(name))}, name...) }
		for i := 0; i < 100; i++ {
			child(fmt.Sprint("n", i), literal(fmt.Sprint("n", i))...)
		}
		child("n99", 2*36+1) // literal 100, in slot 36
		child("n36", 2*37+1)
		child("n0", literal("n0")...)   // literal 101 evicts n36 from slot 37
		child("n36", literal("n36")...) // and 102 evicts n37 from 38
		child("n38", 2*39+1)
		child("n37", literal("n37")...)
		doc := xmltree.NewDocument()
		if err := doc.Node().AppendChild(root); err != nil {
			t.Fatal(err)
		}
		head := []byte{1, byte(xmltree.KindElement) | 0x10, 2, 'r'}
		want = append(labels.AppendLEB128(head, uint64(len(root.Children()))), want...)
		img := update.EncodeDocTree(doc)
		if !bytes.Equal(img, want) {
			t.Fatalf("image of %d bytes\n%x\nwant %d bytes\n%x", len(img), img, len(want), want)
		}
		back, err := update.DecodeDocTree(img)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range back.Root().Children() {
			if got, want := c.Name(), root.Children()[i].Name(); got != want {
				t.Errorf("child %d decodes as %q, want %q", i, got, want)
			}
		}
		if again := update.EncodeDocTree(back); !bytes.Equal(again, img) {
			t.Errorf("the decoded image re-encodes to %d different bytes", len(again))
		}
	})

	t.Run("distinct names cost what they did", func(t *testing.T) {
		// read_heavy's first document at seed 1, whose 20 000 names are
		// all distinct and under 64 bytes: the image is as long as it was
		// when every name was spelt in full.
		_, docs := workload.BuildCorpus(workload.FewHugeDocs(), 1)
		if got, want := len(update.EncodeDocTree(docs[0])), 160836; got != want {
			t.Errorf("the image of a document of distinct names is %d bytes, want %d", got, want)
		}
	})

	t.Run("inline subtrees", func(t *testing.T) {
		// Each inline subtree has a table of its own: each spells entry
		// and title, and keeps only its own bytes reachable, so decoding
		// k of them costs k times what one does.
		doc, err := xmltree.ParseString("<r/>")
		if err != nil {
			t.Fatal(err)
		}
		program := func(k int) []byte {
			ops := make([]update.Op, k)
			for i := range ops {
				e := xmltree.NewElement("entry")
				if err := e.AppendChild(xmltree.NewElement("title")); err != nil {
					t.Fatal(err)
				}
				ops[i] = update.AppendSubtreeOp(doc.Root(), e)
			}
			data, err := update.EncodeOps(doc, ops)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		// A count; each op a kind byte, a two-byte path and a tag, then
		// <entry> with a child list of <title>.
		if got, want := len(program(1)), 1+4+(1+6+1)+(1+6); got != want {
			t.Errorf("one <entry><title/></entry> append is %d bytes, want %d", got, want)
		}
		var size [2]uint64
		for i, k := range []int{1000, 2000} {
			data := program(k)
			_, size[i] = memUse(func() {
				if _, err := update.DecodeOps(doc, data); err != nil {
					t.Fatal(err)
				}
			})
		}
		if size[1] > size[0]*9/4 {
			t.Errorf("decoding 1 000 subtrees allocates %d bytes, 2 000 allocate %d: more than linear", size[0], size[1])
		}
	})

	t.Run("non-canonical spellings", func(t *testing.T) {
		elem := byte(xmltree.KindElement)
		for name, img := range map[string][]byte{
			"a reference to an empty slot": {1, elem | 0x10, 2, 'r', 1, elem, 3},
			"a reference past slot 63":     {1, elem | 0x10, 2, 'r', 1, elem, 0x81, 0x01},
			"a literal a slot holds":       {1, elem | 0x10, 2, 'r', 1, elem, 2, 'r'},
		} {
			if _, err := update.DecodeDocTree(img); !errors.Is(err, update.ErrCodecCorrupt) {
				t.Errorf("image with %s: %v, want ErrCodecCorrupt", name, err)
			}
		}
		doc, err := xmltree.ParseString("<r/>")
		if err != nil {
			t.Fatal(err)
		}
		// Appends under the root: kind 3, path 01 00, then the same
		// target (0x13).
		for name, prog := range map[string][]byte{
			"a reference to an empty slot": {1, 3, 1, 0, 1},
			"a reference past slot 63":     {2, 3, 1, 0, 2, 'x', 0x13, 0x81, 0x01},
			"a literal a slot holds":       {3, 3, 1, 0, 2, 'x', 0x13, 2, 'y', 0x13, 2, 'x'},
		} {
			if _, err := update.DecodeOps(doc, prog); !errors.Is(err, update.ErrCodecCorrupt) {
				t.Errorf("program with %s: %v, want ErrCodecCorrupt", name, err)
			}
		}
	})
}
