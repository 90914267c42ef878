package update_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// refusedAddresses are op programs against xmltree.SampleBook that spell
// a target or a name in a way AppendOps never writes (docs/DURABILITY.md
// §6). The root is path 01 00, title 02 00 00, author 02 00 02; kind 3
// is append-child, 8 delete and 9 set-text, and the kind byte's bits
// 0x10, 0x20 and 0x40 mark the previous target, a sibling step and the
// last name. FuzzDecodeOps' corpus holds each of them.
var refusedAddresses = map[string][]byte{
	"same-target-first":          {1, 0x18},
	"sibling-target-first":       {1, 0x28, 0x02},
	"sibling-of-document":        {2, 0x08, 0x00, 0x28, 0x00},
	"sibling-step-to-previous":   {2, 0x08, 2, 0, 0, 0x28, 0x00},
	"path-to-previous":           {2, 0x08, 2, 0, 0, 0x08, 2, 0, 0},
	"path-to-sibling":            {2, 0x08, 2, 0, 0, 0x08, 2, 0, 2},
	"name-mark-on-delete":        {1, 0x48, 2, 0, 0},
	"name-mark-on-set-text":      {1, 0x49, 2, 0, 0, 2, 't'},
	"name-mark-first":            {1, 0x43, 1, 0},
	"name-field-for-last-name":   {2, 0x03, 1, 0, 2, 'x', 0x13, 1},
	"name-literal-for-last-name": {2, 0x03, 1, 0, 2, 'x', 0x13, 2, 'x'},
	"reserved-bit-0x80":          {1, 0x88, 2, 0, 0},
	"reserved-same-and-sibling":  {2, 0x08, 2, 0, 0, 0x38, 0x02},
	"sibling-step-truncated":     {2, 0x08, 2, 0, 0, 0x28},
}

// TestOpsAddressFromPrevious: an op whose target is the previous op's
// costs no path byte, one whose target is a sibling of it one step, and
// one whose name is the last name written no name byte; the decoder
// reads every such program back to the same nodes, and refuses every
// other spelling of them.
func TestOpsAddressFromPrevious(t *testing.T) {
	doc, err := xmltree.ParseString("<r><k/><k/><k/><k/><k/><k/><k/><k/><k/><k/></r>")
	if err != nil {
		t.Fatal(err)
	}
	appends, deletes := make([]update.Op, 8), make([]update.Op, 8)
	for i := range appends {
		appends[i] = update.AppendChildOp(doc.Root(), "item")
		deletes[i] = update.DeleteOp(doc.Root().Children()[2+i])
	}
	evicting := lastSlotEvicted(doc.Root())
	for _, c := range []struct {
		name string
		ops  []update.Op
		want int
	}{
		// A count; a kind byte, the root's two-byte path and item spelt
		// in five; then seven kind bytes marking target and name.
		{"8 appends of item to one parent", appends, 1 + (1 + 2 + 5) + 7},
		// A count; a kind byte and a three-byte path; then seven kind
		// bytes, each with a one-byte step under the root.
		{"8 deletes of trailing siblings", deletes, 1 + (1 + 3) + 7*2},
		// A count; a kind byte, the path and n0 spelt in three; n1..n9
		// and n10..n63 spelt after a kind byte marking the target; n0
		// referred to by its slot, 0; n64, a literal, enters slot 0.
		{"a literal into the last name's slot", evicting, 1 + (1 + 2 + 3) + 9*4 + 54*5 + 2 + 5},
	} {
		data, err := update.EncodeOps(doc, c.ops)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != c.want {
			t.Errorf("%s encode in %d bytes, want %d: %x", c.name, len(data), c.want, data)
		}
		back, err := update.DecodeOps(doc, data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(back) != len(c.ops) {
			t.Fatalf("%s: %d ops decoded, want %d", c.name, len(back), len(c.ops))
		}
		for i, op := range back {
			if op.Ref != c.ops[i].Ref || op.Name != c.ops[i].Name {
				t.Errorf("%s: op %d decodes to %v %q, want %v %q", c.name, i, op.Ref, op.Name, c.ops[i].Ref, c.ops[i].Name)
			}
		}
	}

	book := xmltree.SampleBook()
	for name, prog := range refusedAddresses {
		if _, err := update.DecodeOps(book, prog); !errors.Is(err, update.ErrCodecCorrupt) {
			t.Errorf("%s %x: %v, want ErrCodecCorrupt", name, prog, err)
		}
	}
}

// lastSlotEvicted appends to n the names n0..n63, which fill the 64
// slots of the name table, then n0, a reference to slot 0, and n64, a
// literal that evicts slot 0 — the last name's slot.
func lastSlotEvicted(n *xmltree.Node) []update.Op {
	ops := make([]update.Op, 66)
	for i := range ops {
		ops[i] = update.AppendChildOp(n, fmt.Sprintf("n%d", i))
	}
	ops[64].Name, ops[65].Name = "n0", "n64"
	return ops
}

// TestAddressedOpsRoundTrip: the decoder reads whatever AppendOps writes
// back to the same ops. The programs are random, over targets that
// repeat, siblings and more names than a name table holds, so literals
// evict every slot, the last name's included.
func TestAddressedOpsRoundTrip(t *testing.T) {
	doc, err := xmltree.ParseString(`<r a="1"><k b="2"><m/><m/></k><k/><k c="3" d="4"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	nodes := append(doc.LabelledNodes(), doc.Node())
	rng := rand.New(rand.NewSource(48))
	for p := 0; p < 300; p++ {
		ops := make([]update.Op, 1+rng.Intn(150))
		for i := range ops {
			n, name := nodes[rng.Intn(len(nodes))], fmt.Sprintf("n%d", rng.Intn(80))
			if i > 0 && rng.Intn(3) == 0 {
				n = ops[i-1].Ref
			}
			switch {
			case n.Kind() == xmltree.KindAttribute:
				ops[i] = update.RenameOp(n, name)
			case rng.Intn(2) == 0:
				ops[i] = update.AppendChildOp(n, name)
			default:
				ops[i] = update.SetAttrOp(n, name, "v")
			}
		}
		data, err := update.EncodeOps(doc, ops)
		if err != nil {
			t.Fatal(err)
		}
		back, err := update.DecodeOps(doc, data)
		if err != nil {
			t.Fatalf("program %d: %v\n%x", p, err, data)
		}
		for i, op := range back {
			if op.Kind != ops[i].Kind || op.Ref != ops[i].Ref || op.Name != ops[i].Name || op.Value != ops[i].Value {
				t.Fatalf("program %d op %d decodes to %v %q, want %v %q", p, i, op.Kind, op.Name, ops[i].Kind, ops[i].Name)
			}
		}
	}
}
