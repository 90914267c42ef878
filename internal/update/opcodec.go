// Binary serialisation of batched ops for the write-ahead log. A
// committed batch is logged as a replayable program: each op's
// reference node is addressed by its structural path in the
// pre-batch tree (the state replay resolves against before calling
// Apply) or from the previous op's, values are length-prefixed strings,
// a name is spelt once and then referred to by its slot in a name table
// or, if it is the last name the program wrote, by a bit of the kind
// byte, and subtree grafts carry either an inline binary tree or — for
// the delete-then-regraft idiom that expresses a move — a
// back-reference to the earlier delete op whose target they re-attach.
// The full wire grammar is specified in docs/DURABILITY.md; the same
// LEB128 and string conventions as internal/store apply.
//
// Determinism is the load-bearing property: EncodeOps runs against the
// exact tree state DecodeOps will see at replay (pre-batch, by
// induction over the log), so paths resolve to the corresponding
// nodes and Session.Apply replays to the identical post-batch state —
// labels, order and attributes included.

package update

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"xmldyn/internal/labels"
	"xmldyn/internal/xmltree"
)

// Subtree source tags inside an encoded op (docs/DURABILITY.md).
const (
	// SubtreeInline marks a subtree op carrying its tree inline.
	SubtreeInline byte = 0
	// SubtreeBackref marks a subtree op re-grafting the target of an
	// earlier OpDelete in the same batch (a batched move).
	SubtreeBackref byte = 1
)

// The bits of an op's kind byte above its kind (docs/DURABILITY.md §6).
const (
	kindBits   byte = 0x0F
	refSame    byte = 0x10 // the previous op's target
	refSibling byte = 0x20 // one step under the previous target's parent
	nameLast   byte = 0x40 // the last name the program wrote
)

// Codec errors.
var (
	ErrCodecCorrupt = errors.New("update: op record corrupted")
	// ErrUnresolvable reports an op whose reference path does not
	// resolve in the document replay is applying to — the log and the
	// recovered tree have diverged.
	ErrUnresolvable = errors.New("update: op path does not resolve")
	// ErrNotLogged reports an op that cannot be serialised: its
	// reference is not attached to the session's document, or a subtree
	// root is attached without a matching earlier delete.
	ErrNotLogged = errors.New("update: op not serialisable")
)

// EncodeOps serialises a batch against the document's current
// (pre-apply) state. Call it before Session.Apply: paths are computed
// from the tree as it stands, which is the state a replaying decoder
// reconstructs before resolving them.
func EncodeOps(doc *xmltree.Document, ops []Op) ([]byte, error) {
	// One buffer, sized once: per op a kind byte, a path of a few
	// one-byte steps and the string lengths, plus the strings. An
	// inline subtree or an unusually deep path grows it.
	size := 2 + 24*len(ops)
	for i := range ops {
		size += len(ops[i].Name) + len(ops[i].Value)
	}
	return AppendOps(make([]byte, 0, size), doc, ops)
}

// AppendOps is EncodeOps appending the program to out, for a caller
// that keeps one buffer from commit to commit.
func AppendOps(out []byte, doc *xmltree.Document, ops []Op) ([]byte, error) {
	out = labels.AppendLEB128(out, uint64(len(ops)))
	// The names of the program's ops; each inline subtree has its own.
	var names nameTable
	// The steps of one reference path, reused from op to op.
	var stepBuf [32]uint64
	steps := stepBuf[:0]
	var prev *xmltree.Node // the previous op's target
	named := -1            // the last op whose name the program wrote
	// Delete ops by target, for encoding moves as back-refs. Built at the
	// first subtree op that needs it: only a move grafts a subtree that
	// is attached when the batch is encoded.
	var deleted map[*xmltree.Node]int
	for i := range ops {
		op := &ops[i]
		if op.Ref == nil {
			return nil, fmt.Errorf("%w: op %d (%v): nil ref", ErrNotLogged, i, op.Kind)
		}
		at, form := len(out), refForm(prev, op.Ref)
		out = append(out, byte(op.Kind)|form)
		var err error
		switch form {
		case 0:
			out, steps, err = appendRef(out, steps, doc.Node(), op.Ref, true)
		case refSibling:
			out, steps, err = appendRef(out, steps, prev.Parent(), op.Ref, false)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: op %d (%v): %v", ErrNotLogged, i, op.Kind, err)
		}
		prev = op.Ref
		switch op.Kind {
		case OpInsertBefore, OpInsertAfter, OpInsertFirstChild, OpAppendChild, OpRename, OpSetAttr:
			if named >= 0 && ops[named].Name == op.Name {
				out[at] |= nameLast
			} else {
				out = names.appendName(out, op.Name)
			}
			named = i
			if op.Kind == OpSetAttr {
				out = appendCodecString(out, op.Value)
			}
		case OpSetText:
			out = appendCodecString(out, op.Value)
		case OpDelete:
			if deleted != nil {
				deleted[op.Ref] = i
			}
		case OpInsertSubtreeBefore, OpInsertSubtreeAfter, OpInsertSubtreeFirst, OpAppendSubtree:
			if op.Subtree == nil {
				return nil, fmt.Errorf("%w: op %d (%v): %w", ErrNotLogged, i, op.Kind, ErrNoTree)
			}
			if op.Subtree.Parent() == nil {
				out = append(out, SubtreeInline)
				out = appendTree(out, op.Subtree, &nameTable{})
				break
			}
			if deleted == nil {
				deleted = make(map[*xmltree.Node]int)
				for j := range ops[:i] {
					if ops[j].Kind == OpDelete {
						deleted[ops[j].Ref] = j
					}
				}
			}
			j, moved := deleted[op.Subtree]
			if !moved {
				return nil, fmt.Errorf("%w: op %d (%v): attached subtree is not an earlier delete target", ErrNotLogged, i, op.Kind)
			}
			out = append(out, SubtreeBackref)
			out = labels.AppendLEB128(out, uint64(j))
		default:
			return nil, fmt.Errorf("%w: op %d: kind %d", ErrNotLogged, i, int(op.Kind))
		}
	}
	return out, nil
}

// DecodeOps rebuilds a batch from its wire form, resolving reference
// paths against doc's current (pre-apply) state. The returned ops are
// ready for Session.Apply.
func DecodeOps(doc *xmltree.Document, data []byte) ([]Op, error) {
	return appendDecoded(nil, doc, data)
}

// appendDecoded is DecodeOps appending the ops to ops (Batch.AddEncoded).
// After an error it returns what it had decoded. Its names and values are
// counted first and then cut from one string, as treeReader does: queued
// holds their bytes until the ops are read (queueField, cutFields).
func appendDecoded(ops []Op, doc *xmltree.Document, data []byte) ([]Op, error) {
	count, pos, err := labels.DecodeLEB128(data)
	if err != nil {
		return ops, fmt.Errorf("%w: op count: %v", ErrCodecCorrupt, err)
	}
	// Each op costs at least its kind byte.
	if count > uint64(len(data)-pos) {
		return ops, fmt.Errorf("%w: implausible op count %d", ErrCodecCorrupt, count)
	}
	// Back-references count from the program's first op.
	base := len(ops)
	var names nameTable
	var queuedArr [maxField]byte
	queued := queuedArr[:0]
	defer func() { cutFields(ops[base:], queued) }()
	ops = slices.Grow(ops, int(count))
	var prev *xmltree.Node
	last := -1 // the slot of the last name read
	for i := uint64(0); i < count; i++ {
		if pos >= len(data) {
			return ops, fmt.Errorf("%w: truncated at op %d", ErrCodecCorrupt, i)
		}
		b := data[pos]
		op, mark, form := Op{Kind: OpKind(b & kindBits)}, b&nameLast != 0, b&^(kindBits|nameLast)
		pos++
		switch {
		case form == 0:
			op.Ref, pos, err = readRef(doc.Node(), data, pos, true)
		case form == refSame:
			op.Ref = prev
		case form == refSibling && prev != nil && prev.Parent() != nil:
			op.Ref, pos, err = readRef(prev.Parent(), data, pos, false)
		}
		// AppendOps writes the shortest address, and marks only names.
		if err == nil && (op.Ref == nil || refForm(prev, op.Ref) != form || mark && op.Kind >= OpInsertSubtreeBefore && op.Kind <= OpSetText) {
			err = fmt.Errorf("%w: kind byte %#x", ErrCodecCorrupt, b)
		}
		if err != nil {
			return ops, fmt.Errorf("op %d (%v): %w", i, op.Kind, err)
		}
		prev = op.Ref
		switch op.Kind {
		case OpInsertBefore, OpInsertAfter, OpInsertFirstChild, OpAppendChild, OpRename, OpSetAttr:
			if last, pos, err = names.readOpName(data, pos, last, mark); err != nil {
				return ops, fmt.Errorf("op %d: %w", i, err)
			}
			op.Name, queued = queueField(data[names.off[last]:names.end[last]], queued)
			if op.Kind == OpSetAttr {
				op.Value, pos, queued, err = readField(data, pos, queued)
			}
		case OpSetText:
			op.Value, pos, queued, err = readField(data, pos, queued)
		case OpDelete:
			// Path only.
		case OpInsertSubtreeBefore, OpInsertSubtreeAfter, OpInsertSubtreeFirst, OpAppendSubtree:
			if pos >= len(data) {
				return ops, fmt.Errorf("%w: op %d subtree tag", ErrCodecCorrupt, i)
			}
			tag := data[pos]
			pos++
			switch tag {
			case SubtreeBackref:
				j, n, err := labels.DecodeLEB128(data[pos:])
				if err != nil {
					return ops, fmt.Errorf("%w: op %d backref: %v", ErrCodecCorrupt, i, err)
				}
				pos += n
				if j >= i || ops[base+int(j)].Kind != OpDelete {
					return ops, fmt.Errorf("%w: op %d backref %d is not an earlier delete", ErrCodecCorrupt, i, j)
				}
				// AppendOps writes a parentless subtree inline. A node
				// deleted twice is left to Apply, which refuses the second
				// delete (ErrDetachedRef).
				op.Subtree = ops[base+int(j)].Ref
				if op.Subtree.Parent() == nil {
					return ops, fmt.Errorf("%w: op %d backref %d names the document node", ErrCodecCorrupt, i, j)
				}
			case SubtreeInline:
				op.Subtree, pos, err = decodeTree(data, pos)
			default:
				return ops, fmt.Errorf("%w: op %d subtree tag %d", ErrCodecCorrupt, i, tag)
			}
		default:
			return ops, fmt.Errorf("%w: op %d kind %d", ErrCodecCorrupt, i, int(op.Kind))
		}
		if err != nil {
			return ops, fmt.Errorf("op %d: %w", i, err)
		}
		ops = append(ops, op)
	}
	if pos != len(data) {
		return ops, fmt.Errorf("%w: %d trailing bytes", ErrCodecCorrupt, len(data)-pos)
	}
	return ops, nil
}

// --- structural paths --------------------------------------------------------

// appendRef appends the index route from top down to n, one step per
// level, each step a child (or, only as the final step, attribute)
// index, and with path, the depth before them: a structural path is
// the route from the document node, which itself has the empty path.
// The route is found leaf-first, so it is collected in steps — the
// caller's scratch, handed back for the next path — and written from
// the back.
func appendRef(out []byte, steps []uint64, top, n *xmltree.Node, path bool) ([]byte, []uint64, error) {
	steps = steps[:0]
	for cur := n; cur != top; cur = cur.Parent() {
		if cur.Parent() == nil {
			return out, steps, fmt.Errorf("node %q (%v) is not attached to the document", n.Name(), n.Kind())
		}
		idx := cur.Index()
		if idx < 0 {
			return out, steps, fmt.Errorf("node %q has inconsistent parent linkage", cur.Name())
		}
		step := uint64(idx) << 1
		if cur.Kind() == xmltree.KindAttribute {
			step |= 1
		}
		steps = append(steps, step)
	}
	if path {
		out = labels.AppendLEB128(out, uint64(len(steps)))
	}
	for i := len(steps) - 1; i >= 0; i-- {
		out = labels.AppendLEB128(out, steps[i])
	}
	return out, steps, nil
}

// refForm is the shortest address of target n after an op on prev.
func refForm(prev, n *xmltree.Node) byte {
	if n == prev {
		return refSame
	}
	if prev != nil && prev.Parent() != nil && n.Parent() == prev.Parent() {
		return refSibling
	}
	return 0
}

// readRef reads a route as appendRef writes it (with path, a depth and
// as many steps, else one step), walking it down from cur as it goes,
// and returns the node it addresses and the offset just past it. A
// route that stops resolving is still read to its end: a malformed one
// is ErrCodecCorrupt wherever the damage sits.
func readRef(cur *xmltree.Node, data []byte, pos int, path bool) (*xmltree.Node, int, error) {
	depth, n, err := uint64(1), 0, error(nil)
	if path {
		depth, n, err = labels.DecodeLEB128(data[pos:])
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w: path depth: %v", ErrCodecCorrupt, err)
	}
	pos += n
	if depth > uint64(len(data)-pos) {
		return nil, 0, fmt.Errorf("%w: implausible path depth %d", ErrCodecCorrupt, depth)
	}
	var dangling error
	for d := uint64(0); d < depth; d++ {
		step, n, err := labels.DecodeLEB128(data[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("%w: path step %d: %v", ErrCodecCorrupt, d, err)
		}
		pos += n
		if dangling != nil {
			continue
		}
		list, what := cur.Children(), "child"
		if step&1 == 1 {
			if d != depth-1 {
				dangling = fmt.Errorf("%w: attribute step %d before the final level", ErrUnresolvable, d)
				continue
			}
			list, what = cur.Attributes(), "attribute"
		}
		if idx := step >> 1; idx < uint64(len(list)) {
			cur = list[idx]
		} else {
			dangling = fmt.Errorf("%w: %s index %d of %d at depth %d", ErrUnresolvable, what, idx, len(list), d)
		}
	}
	if dangling != nil {
		return nil, 0, dangling
	}
	return cur, pos, nil
}

// --- binary trees ------------------------------------------------------------

// EncodeDocTree serialises every top-level child of the document node
// (the root element plus any document-level comments and processing
// instructions) in document order. It is the initial-content image a
// durable repository logs when a document is opened, and a checkpoint's
// document snapshot; on a version view it walks the persistent tree
// behind it, so encoding a pinned version materialises nothing.
func EncodeDocTree(doc *xmltree.Document) []byte {
	kids := doc.Node().Source().Children()
	out := labels.AppendLEB128(nil, uint64(len(kids)))
	var names nameTable
	for _, c := range kids {
		out = appendTree(out, c, &names)
	}
	return out
}

// DecodeDocTree rebuilds a document from its EncodeDocTree image, in a
// constant number of allocations (treeReader). The document's nodes,
// lists and strings live and die together: holding one keeps all
// (docs/ARCHITECTURE.md, "Loading a document"). An image with more than
// one root element is corrupt: a session holds no such document, as
// NewSession and every insert refuse a second root (ErrRootSibling).
func DecodeDocTree(data []byte) (*xmltree.Document, error) {
	r := treeReader{data: data}
	end, err := r.readList(nil, 0, 0)
	if err == nil && end != len(data) {
		err = fmt.Errorf("%w: %d trailing bytes", ErrCodecCorrupt, len(data)-end)
	}
	if err != nil {
		return nil, err
	}
	r.build(end)
	doc := xmltree.NewDocument()
	if _, err := r.readList(doc.Node(), 0, 0); err != nil {
		return nil, err
	}
	if roots := doc.RootCount(); roots > 1 {
		return nil, fmt.Errorf("%w: %d root elements", ErrCodecCorrupt, roots)
	}
	return doc, nil
}

// Head-byte flags of an encoded node (docs/DURABILITY.md §7): the low
// three bits are its kind, and a flag says a non-empty attribute or
// child list follows its fields.
const (
	hasAttrs byte = 0x08
	hasKids  byte = 0x10
)

// appendTree serialises the subtree rooted at n: a head byte, the name
// (through names, the table of its image or inline subtree) and value
// its kind carries, then attributes and children recursively, in
// document order, each list only if it is non-empty. Unlike an XML text
// round-trip this preserves whitespace-only text nodes and every value
// byte exactly.
func appendTree(out []byte, n *xmltree.Node, names *nameTable) []byte {
	kind, attrs, kids := n.Kind(), n.Attributes(), n.Children()
	head := byte(kind)
	if len(attrs) > 0 {
		head |= hasAttrs
	}
	if len(kids) > 0 {
		head |= hasKids
	}
	out = append(out, head)
	if kind != xmltree.KindText && kind != xmltree.KindComment {
		out = names.appendName(out, n.Name())
	}
	if kind != xmltree.KindElement {
		out = appendCodecString(out, n.Value())
	}
	for _, list := range [...][]*xmltree.Node{attrs, kids} {
		if len(list) > 0 {
			out = labels.AppendLEB128(out, uint64(len(list)))
			for _, c := range list {
				out = appendTree(out, c, names)
			}
		}
	}
	return out
}

// treeReader decodes trees in two passes over the same bytes. The first,
// before build, creates nothing: it checks every kind, length and count
// and adds up the nodes and list entries the trees need — each claimed
// child has to be there for the pass to succeed, so a count the bytes do
// not back reserves nothing. The second takes the nodes and their
// exact-size lists from one slab of that size, and every name and value
// from text, the one string copy of the bytes the trees span; the
// attachment rules are AppendAttr's and AppendChild's, as ever. Each pass
// starts from an empty name table.
type treeReader struct {
	data         []byte
	nodes, links int
	names        nameTable
	building     bool         // the second pass
	slab         xmltree.Slab // of nodes nodes and links list entries
	text         string       // string(data), as far as the trees go
}

// build ends the first pass, which read data[:end].
func (r *treeReader) build(end int) {
	r.building, r.slab, r.text = true, xmltree.NewSlab(r.nodes, r.links), string(r.data[:end])
	r.names = nameTable{}
}

// decodeTree decodes the one subtree at data[pos:].
func decodeTree(data []byte, pos int) (*xmltree.Node, int, error) {
	r := treeReader{data: data[pos:]}
	_, end, err := r.readTree(0)
	if err != nil {
		return nil, 0, err
	}
	r.build(end)
	n, _, err := r.readTree(0)
	return n, pos + end, err
}

// readLength reads the count or byte length at data[pos:]. What it
// counts takes at least a byte each, so one beyond the bytes left is
// corrupt.
func readLength(data []byte, pos int, what string) (int, int, error) {
	v, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %s: %v", ErrCodecCorrupt, what, err)
	}
	pos += n
	if v > uint64(len(data)-pos) {
		return 0, 0, fmt.Errorf("%w: implausible %s %d", ErrCodecCorrupt, what, v)
	}
	return int(v), pos, nil
}

// cut reads the length-prefixed string at pos — on the first pass only
// its extent.
func (r *treeReader) cut(pos int, what string) (string, int, error) {
	l, pos, err := readLength(r.data, pos, what)
	if err != nil || !r.building {
		return "", pos + l, err
	}
	return r.text[pos : pos+l], pos + l, nil
}

// name reads the name field at pos — on the first pass only its extent.
func (r *treeReader) name(pos int) (string, int, error) {
	s, pos, err := r.names.read(r.data, pos)
	if err != nil || !r.building {
		return "", pos, err
	}
	return r.text[r.names.off[s]:r.names.end[s]], pos, nil
}

// readTree reads the subtree at pos (a nil node on the first pass).
// Bar a varint spelt long, only the spelling appendTree writes is read:
// a head with an unknown kind or bit, a list flagged on an attribute,
// and a flagged list that is empty are corrupt.
func (r *treeReader) readTree(pos int) (*xmltree.Node, int, error) {
	if pos >= len(r.data) {
		return nil, 0, fmt.Errorf("%w: truncated tree node", ErrCodecCorrupt)
	}
	head := r.data[pos]
	kind := xmltree.Kind(head &^ (hasAttrs | hasKids))
	if kind == xmltree.KindAttribute && head != byte(kind) {
		return nil, 0, fmt.Errorf("%w: attribute head %#x", ErrCodecCorrupt, head)
	}
	pos++
	var name, value string
	var err error
	switch kind {
	case xmltree.KindElement:
		name, pos, err = r.name(pos)
	case xmltree.KindText, xmltree.KindComment:
		value, pos, err = r.cut(pos, "value length")
	case xmltree.KindAttribute, xmltree.KindProcInst:
		if name, pos, err = r.name(pos); err == nil {
			value, pos, err = r.cut(pos, "value length")
		}
	default:
		return nil, 0, fmt.Errorf("%w: tree node head %#x", ErrCodecCorrupt, head)
	}
	if err != nil {
		return nil, 0, err
	}
	var n *xmltree.Node
	if r.building {
		n = r.slab.New(kind, name, value)
	}
	r.nodes++
	for _, flag := range [...]byte{hasAttrs, hasKids} {
		if head&flag != 0 {
			if pos, err = r.readList(n, pos, flag); err != nil {
				return nil, 0, err
			}
		}
	}
	return n, pos, nil
}

// readList reads a count and as many subtrees — the attributes of n
// (flag hasAttrs), its children (hasKids) or, with flag 0, the
// document's top-level nodes — and attaches them. A flagged list is
// never empty. The children's room extends the attributes' window: an
// attribute reserves none of its own.
func (r *treeReader) readList(n *xmltree.Node, pos int, flag byte) (int, error) {
	count, pos, err := readLength(r.data, pos, "node count")
	if err != nil {
		return 0, err
	}
	if count == 0 && flag != 0 {
		return 0, fmt.Errorf("%w: empty list flagged %#x", ErrCodecCorrupt, flag)
	}
	r.links += count
	attach := (*xmltree.Node).AppendChild
	if flag == hasAttrs {
		attach = (*xmltree.Node).AppendAttr
	}
	if n != nil {
		r.slab.Reserve(n, count)
	}
	for i := 0; i < count; i++ {
		var c *xmltree.Node
		if c, pos, err = r.readTree(pos); err != nil {
			return 0, err
		}
		if n != nil {
			if err := attach(n, c); err != nil {
				return 0, fmt.Errorf("%w: %v", ErrCodecCorrupt, err)
			}
		}
	}
	return pos, nil
}

// --- shared string helpers ---------------------------------------------------

// appendCodecString delegates to the shared length-prefixed string codec
// in internal/labels.
func appendCodecString(out []byte, s string) []byte { return labels.AppendString(out, s) }

// maxField is the most bytes of names and values a decoded program cuts
// from the one string it shares: a live node keeps at most that much of
// its record reachable.
const maxField = 512

// fieldPad supplies the placeholders queueField returns.
var fieldPad = strings.Repeat("?", maxField)

// readField reads the length-prefixed value at data[pos:] (queueField).
func readField(data []byte, pos int, queued []byte) (string, int, []byte, error) {
	l, pos, err := readLength(data, pos, "string length")
	if err != nil {
		return "", 0, queued, err
	}
	f, queued := queueField(data[pos:pos+l], queued)
	return f, pos + l, queued, nil
}

// queueField returns a name or value of a decoded op, the bytes f. While
// queued has room, a field of 2 bytes or more is appended there and
// returned as a placeholder of its length, fieldPad's prefix, for
// cutFields to replace. Any other field is a string of its own (the
// runtime's, for a byte), as is every one after the first that finds
// queued full.
func queueField(f, queued []byte) (string, []byte) {
	switch {
	case len(f) < 2 || len(f) > maxField:
		return string(f), queued
	case len(f) > cap(queued)-len(queued):
		return string(f), queued[:len(queued):len(queued)]
	}
	return fieldPad[:len(f)], append(queued, f...)
}

// cutFields replaces the placeholders among the names and values of ops —
// in reading order, the ones whose bytes queued holds — with cuts of one
// string.
func cutFields(ops []Op, queued []byte) {
	text := string(queued)
	for i := range ops {
		for _, f := range [...]*string{&ops[i].Name, &ops[i].Value} {
			if l := len(*f); len(text) > 0 && l >= 2 && l <= maxField {
				*f, text = text[:l], text[l:]
			}
		}
	}
}

// --- name tables ---------------------------------------------------------------

// nameSlots is the size of the name table of each tree image, op
// program and inline subtree (docs/DURABILITY.md §6). A name field is
// LEB128 v: an even v a literal of v/2 bytes, which enters slot
// (literals so far) mod nameSlots, an odd v the name in slot (v-1)/2.
// The encoder refers to every name a slot holds, so the decoder refuses
// a literal a slot holds.
const nameSlots = 64

// nameTable is a name table: each slot's hash and where its literal
// lies in the bytes written or read, and an index that chains the live
// slots of each bucket of hashes, oldest first.
type nameTable struct {
	lits       int // literals so far
	hash       [nameSlots]uint32
	off, end   [nameSlots]int
	head, tail [nameBuckets]uint8 // 1 + a bucket's oldest, newest slot
	next       [nameSlots]uint8   // 1 + the bucket's next newer slot
}

// nameBuckets is how many buckets the top bits of a hash pick from. A
// bucket's head is 0 while it is empty, and a chain ends in a next of 0.
const nameBuckets = 256

// nameHash folds a name a byte at a time, each step a multiply by
// 2^32/φ, which carries every bit into the top bits that pick a bucket.
func nameHash[T string | []byte](s T) uint32 {
	h := uint32(len(s))
	for i := range len(s) {
		h = (h ^ uint32(s[i])) * 0x9e3779b1
	}
	return h
}

// findName returns the slot of t holding name in buf, or -1, with the
// name's hash.
func findName[T string | []byte](t *nameTable, buf []byte, name T) (int, uint32) {
	h := nameHash(name)
	for i := t.head[h>>24]; i != 0; i = t.next[i-1] {
		if s := i - 1; t.hash[s] == h && string(buf[t.off[s]:t.end[s]]) == string(name) {
			return int(s), h
		}
	}
	return -1, h
}

// enter gives the next slot to the literal at [off, end) of hash h. The
// slot's name, the oldest, leaves the head of its bucket's chain, and
// the new one joins the tail of its own.
func (t *nameTable) enter(h uint32, off, end int) int {
	s := t.lits % nameSlots
	if t.lits >= nameSlots {
		t.head[t.hash[s]>>24] = t.next[s]
	}
	t.lits++
	t.hash[s], t.off[s], t.end[s], t.next[s] = h, off, end, 0
	b := h >> 24
	if t.head[b] == 0 {
		t.head[b] = uint8(s + 1)
	} else {
		t.next[t.tail[b]-1] = uint8(s + 1)
	}
	t.tail[b] = uint8(s + 1)
	return s
}

// appendName appends the name field of name to out, the bytes t is
// written to.
func (t *nameTable) appendName(out []byte, name string) []byte {
	s, h := findName(t, out, name)
	if s >= 0 {
		return append(out, byte(2*s+1))
	}
	out = labels.AppendLEB128(out, uint64(len(name))<<1)
	t.enter(h, len(out), len(out)+len(name))
	return append(out, name...)
}

// read reads the name field at data[pos:], the bytes t is read from,
// returning its slot and the offset past it.
func (t *nameTable) read(data []byte, pos int) (int, int, error) {
	v, n, err := labels.DecodeLEB128(data[pos:])
	pos += n
	if err == nil && v&1 == 1 && v>>1 < uint64(min(t.lits, nameSlots)) {
		return int(v >> 1), pos, nil
	}
	f := data[pos : pos+int(min(v>>1, uint64(len(data)-pos)))]
	if s, h := findName(t, data, f); err == nil && v&1 == 0 && v>>1 == uint64(len(f)) && s < 0 {
		return t.enter(h, pos, pos+len(f)), pos + len(f), nil
	}
	return 0, 0, fmt.Errorf("%w: name field %d, %d literals read: a reference past them, a literal a slot holds or one past the bytes (%v)", ErrCodecCorrupt, v, t.lits, err)
}

// readOpName reads an op's name and returns its slot: marked, the slot
// last of the last name read, else the name field at data[pos:], which
// AppendOps never writes as a reference to slot last. A literal may
// enter slot last: the last name held the oldest slot, and leaves it.
func (t *nameTable) readOpName(data []byte, pos, last int, marked bool) (int, int, error) {
	if marked {
		if last < 0 {
			return 0, 0, fmt.Errorf("%w: a name mark before any name", ErrCodecCorrupt)
		}
		return last, pos, nil
	}
	lits := t.lits
	s, pos, err := t.read(data, pos)
	if err == nil && s == last && t.lits == lits {
		err = fmt.Errorf("%w: a reference to the last name's slot %d", ErrCodecCorrupt, s)
	}
	return s, pos, err
}
