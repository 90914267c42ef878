package update_test

import (
	"bytes"
	"errors"
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// opProgram is a named op program.
type opProgram struct {
	name string
	ops  []update.Op
}

// opPrograms are op programs against xmltree.SampleBook: one for every
// op kind — element and attribute references, inline subtrees — a move,
// which is a delete and the back-reference that regrafts its target,
// one of every kind at once, and one for each way an op refers to the
// op before: its target, a sibling of it (an element's or an
// attribute's) and its name, the last also when a literal then evicts
// its slot. FuzzDecodeOps' checked-in corpus
// (testdata/fuzz/FuzzDecodeOps) holds their encodings.
func opPrograms(doc *xmltree.Document) []opProgram {
	root, title, editor := doc.Root(), doc.FindElement("title"), doc.FindElement("editor")
	publisher := doc.FindElement("publisher")
	genre := title.Attributes()[0]
	tree := func() *xmltree.Node {
		e := xmltree.NewElement("s")
		_, _ = e.SetAttr("k", "v")
		_ = e.AppendChild(xmltree.NewText("t"))
		return e
	}
	progs := []opProgram{
		{"insert-before", []update.Op{update.InsertBeforeOp(title, "x")}},
		{"insert-after", []update.Op{update.InsertAfterOp(editor, "x")}},
		{"insert-first-child", []update.Op{update.InsertFirstChildOp(root, "x")}},
		{"append-child", []update.Op{update.AppendChildOp(editor, "x")}},
		{"insert-subtree-before", []update.Op{update.InsertSubtreeBeforeOp(title, tree())}},
		{"insert-subtree-after", []update.Op{update.InsertSubtreeAfterOp(editor, tree())}},
		{"insert-subtree-first", []update.Op{update.InsertSubtreeFirstOp(root, tree())}},
		{"append-subtree", []update.Op{update.AppendSubtreeOp(editor, tree())}},
		{"set-text", []update.Op{update.SetTextOp(title, "t")}},
		{"rename", []update.Op{update.RenameOp(genre, "g")}},
		{"set-attr", []update.Op{update.SetAttrOp(editor, "k", "v")}},
		{"delete", []update.Op{update.DeleteOp(genre)}},
		{"move", []update.Op{update.SetTextOp(title, "t"), update.DeleteOp(editor), update.AppendSubtreeOp(root, editor)}},
	}
	var every []update.Op
	for _, p := range progs[:len(progs)-2] {
		every = append(every, p.ops...)
	}
	every = append(every, progs[len(progs)-1].ops...)
	return append(progs, opProgram{"every-kind", every},
		opProgram{"same-target", []update.Op{update.SetTextOp(title, "t"), update.RenameOp(title, "g")}},
		opProgram{"sibling-target", []update.Op{update.DeleteOp(title), update.DeleteOp(publisher)}},
		opProgram{"attribute-sibling", []update.Op{update.RenameOp(genre, "g"), update.InsertBeforeOp(title.Children()[0], "x")}},
		opProgram{"name-mark", []update.Op{update.AppendChildOp(root, "x"), update.InsertFirstChildOp(root, "x"), update.SetAttrOp(editor, "x", "v")}},
		opProgram{"name-literal-into-last-slot", lastSlotEvicted(root)},
	)
}

// FuzzDecodeOps: the decoder of op programs — the body of every logged
// transaction — never panics. What it rejects it rejects with
// ErrCodecCorrupt or ErrUnresolvable, for the price of a reservation no
// larger than the input allows; what it accepts re-encodes to the input
// itself, unless the input deleted one node twice, where the encoder's
// back-reference names the later delete; and the re-encoding decodes to
// itself.
func FuzzDecodeOps(f *testing.F) {
	doc := xmltree.SampleBook()
	for _, p := range opPrograms(doc) {
		enc, err := update.EncodeOps(doc, p.ops)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := update.DecodeOps(doc, data)
		if err != nil {
			if !errors.Is(err, update.ErrCodecCorrupt) && !errors.Is(err, update.ErrUnresolvable) {
				t.Fatalf("rejection is neither ErrCodecCorrupt nor ErrUnresolvable: %v", err)
			}
			// The ops decoded so far, each under 64 bytes and at least one
			// of the input's, the slabs of their subtrees and the error.
			if objects, size := memUse(func() { update.DecodeOps(doc, data) }); size > uint64(64*len(data)+4096) {
				t.Fatalf("rejecting %d bytes took %d allocations, %d bytes", len(data), objects, size)
			}
			return
		}
		// What it accepts costs what a rejection may.
		if objects, size := memUse(func() { update.DecodeOps(doc, data) }); size > uint64(64*len(data)+4096) {
			t.Fatalf("accepting %d bytes took %d allocations, %d bytes", len(data), objects, size)
		}
		enc, err := update.EncodeOps(doc, ops)
		if err != nil {
			t.Fatalf("decoded ops do not encode: %v", err)
		}
		if len(enc) != len(data) || (!bytes.Equal(enc, data) && !deletesTwice(ops)) {
			t.Fatalf("decode then encode turned\n%q into\n%q", data, enc)
		}
		again, err := update.DecodeOps(doc, enc)
		if err != nil {
			t.Fatalf("re-encoded program rejected: %v", err)
		}
		if enc2, err := update.EncodeOps(doc, again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("the encoder's form does not decode to itself: %q (%v)", enc, err)
		}
	})
}

// deletesTwice reports whether two deletes of ops target one node.
func deletesTwice(ops []update.Op) bool {
	seen := make(map[*xmltree.Node]bool)
	for _, op := range ops {
		if op.Kind == update.OpDelete {
			if seen[op.Ref] {
				return true
			}
			seen[op.Ref] = true
		}
	}
	return false
}
