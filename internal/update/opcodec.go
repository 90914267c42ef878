// Binary serialisation of batched ops for the write-ahead log. A
// committed batch is logged as a replayable program: each op's
// reference node is addressed by its structural path in the
// pre-batch tree (the state replay resolves against before calling
// Apply), names and values are length-prefixed strings, and subtree
// grafts carry either an inline binary tree or — for the delete-then-
// regraft idiom that expresses a move — a back-reference to the
// earlier delete op whose target they re-attach. The full wire grammar
// is specified in docs/DURABILITY.md; the same LEB128 and string
// conventions as internal/store apply.
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
	// The steps of one reference path, reused from op to op.
	var stepBuf [32]uint64
	steps := stepBuf[:0]
	// Delete ops by target, for encoding moves as back-refs. Built at the
	// first subtree op that needs it: only a move grafts a subtree that
	// is attached when the batch is encoded.
	var deleted map[*xmltree.Node]int
	for i := range ops {
		op := &ops[i]
		if op.Ref == nil {
			return nil, fmt.Errorf("%w: op %d (%v): nil ref", ErrNotLogged, i, op.Kind)
		}
		out = append(out, byte(op.Kind))
		var err error
		if out, steps, err = appendRef(out, steps, doc, op.Ref); err != nil {
			return nil, fmt.Errorf("%w: op %d (%v): %v", ErrNotLogged, i, op.Kind, err)
		}
		switch op.Kind {
		case OpInsertBefore, OpInsertAfter, OpInsertFirstChild, OpAppendChild, OpRename:
			out = appendCodecString(out, op.Name)
		case OpSetText:
			out = appendCodecString(out, op.Value)
		case OpSetAttr:
			out = appendCodecString(out, op.Name)
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
				out = appendTree(out, op.Subtree)
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
// After an error it returns what it had decoded.
func appendDecoded(ops []Op, doc *xmltree.Document, data []byte) ([]Op, error) {
	count, pos, err := labels.DecodeLEB128(data)
	if err != nil {
		return ops, fmt.Errorf("%w: op count: %v", ErrCodecCorrupt, err)
	}
	// Each op costs at least a kind byte and an empty path.
	if count > uint64(len(data)) {
		return ops, fmt.Errorf("%w: implausible op count %d", ErrCodecCorrupt, count)
	}
	// Back-references count from the program's first op.
	base := len(ops)
	ops = slices.Grow(ops, int(count))
	for i := uint64(0); i < count; i++ {
		if pos >= len(data) {
			return ops, fmt.Errorf("%w: truncated at op %d", ErrCodecCorrupt, i)
		}
		op := Op{Kind: OpKind(data[pos])}
		pos++
		if op.Ref, pos, err = readRef(doc, data, pos); err != nil {
			return ops, fmt.Errorf("op %d (%v): %w", i, op.Kind, err)
		}
		switch op.Kind {
		case OpInsertBefore, OpInsertAfter, OpInsertFirstChild, OpAppendChild, OpRename:
			if op.Name, pos, err = readCodecString(data, pos); err != nil {
				return ops, fmt.Errorf("op %d: %w", i, err)
			}
		case OpSetText:
			if op.Value, pos, err = readCodecString(data, pos); err != nil {
				return ops, fmt.Errorf("op %d: %w", i, err)
			}
		case OpSetAttr:
			if op.Name, pos, err = readCodecString(data, pos); err != nil {
				return ops, fmt.Errorf("op %d: %w", i, err)
			}
			if op.Value, pos, err = readCodecString(data, pos); err != nil {
				return ops, fmt.Errorf("op %d: %w", i, err)
			}
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
				op.Subtree = ops[base+int(j)].Ref
			case SubtreeInline:
				if op.Subtree, pos, err = decodeTree(data, pos); err != nil {
					return ops, fmt.Errorf("op %d: %w", i, err)
				}
			default:
				return ops, fmt.Errorf("%w: op %d subtree tag %d", ErrCodecCorrupt, i, tag)
			}
		default:
			return ops, fmt.Errorf("%w: op %d kind %d", ErrCodecCorrupt, i, int(op.Kind))
		}
		ops = append(ops, op)
	}
	if pos != len(data) {
		return ops, fmt.Errorf("%w: %d trailing bytes", ErrCodecCorrupt, len(data)-pos)
	}
	return ops, nil
}

// --- structural paths --------------------------------------------------------

// appendRef appends the structural path that addresses n: the index
// route from the document node down, one step per level, each step a
// child (or, only as the final step, attribute) index, written as the
// depth and then the steps. The document node itself has the empty
// path. The route is found leaf-first, so it is collected in steps —
// the caller's scratch, handed back for the next path — and written
// from the back.
func appendRef(out []byte, steps []uint64, doc *xmltree.Document, n *xmltree.Node) ([]byte, []uint64, error) {
	steps = steps[:0]
	for cur := n; cur != doc.Node(); cur = cur.Parent() {
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
	out = labels.AppendLEB128(out, uint64(len(steps)))
	for i := len(steps) - 1; i >= 0; i-- {
		out = labels.AppendLEB128(out, steps[i])
	}
	return out, steps, nil
}

// readRef reads the path at data[pos:] and walks it down from the
// document node as it goes, returning the node it addresses and the
// offset just past it. A path that stops resolving is still read to its
// end: a malformed one is ErrCodecCorrupt wherever the damage sits.
func readRef(doc *xmltree.Document, data []byte, pos int) (*xmltree.Node, int, error) {
	depth, n, err := labels.DecodeLEB128(data[pos:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: path depth: %v", ErrCodecCorrupt, err)
	}
	pos += n
	if depth > uint64(len(data)-pos) {
		return nil, 0, fmt.Errorf("%w: implausible path depth %d", ErrCodecCorrupt, depth)
	}
	cur := doc.Node()
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
	for _, c := range kids {
		out = appendTree(out, c)
	}
	return out
}

// DecodeDocTree rebuilds a document from its EncodeDocTree image, in a
// constant number of allocations (treeReader). The document's nodes,
// lists and strings live and die together: holding one keeps all
// (docs/ARCHITECTURE.md, "Loading a document").
func DecodeDocTree(data []byte) (*xmltree.Document, error) {
	r := treeReader{data: data}
	end, err := r.readList(nil, 0, false)
	if err == nil && end != len(data) {
		err = fmt.Errorf("%w: %d trailing bytes", ErrCodecCorrupt, len(data)-end)
	}
	if err != nil {
		return nil, err
	}
	r.build(end)
	doc := xmltree.NewDocument()
	if _, err := r.readList(doc.Node(), 0, false); err != nil {
		return nil, err
	}
	return doc, nil
}

// appendTree serialises the subtree rooted at n: kind, name, value,
// then attributes and children recursively, in document order. Unlike
// an XML text round-trip this preserves whitespace-only text nodes and
// every value byte exactly.
func appendTree(out []byte, n *xmltree.Node) []byte {
	out = append(out, byte(n.Kind()))
	out = appendCodecString(out, n.Name())
	out = appendCodecString(out, n.Value())
	attrs := n.Attributes()
	out = labels.AppendLEB128(out, uint64(len(attrs)))
	for _, a := range attrs {
		out = appendTree(out, a)
	}
	kids := n.Children()
	out = labels.AppendLEB128(out, uint64(len(kids)))
	for _, c := range kids {
		out = appendTree(out, c)
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
// attachment rules are AppendAttr's and AppendChild's, as ever.
type treeReader struct {
	data         []byte
	nodes, links int
	building     bool         // the second pass
	slab         xmltree.Slab // of nodes nodes and links list entries
	text         string       // string(data), as far as the trees go
}

// build ends the first pass, which read data[:end].
func (r *treeReader) build(end int) {
	r.building, r.slab, r.text = true, xmltree.NewSlab(r.nodes, r.links), string(r.data[:end])
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

// length reads the count or byte length at pos. What it counts takes at
// least a byte each, so one beyond the bytes left is corrupt.
func (r *treeReader) length(pos int, what string) (int, int, error) {
	v, n, err := labels.DecodeLEB128(r.data[pos:])
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %s: %v", ErrCodecCorrupt, what, err)
	}
	pos += n
	if v > uint64(len(r.data)-pos) {
		return 0, 0, fmt.Errorf("%w: implausible %s %d", ErrCodecCorrupt, what, v)
	}
	return int(v), pos, nil
}

// cut reads the length-prefixed string at pos — on the first pass only
// its extent.
func (r *treeReader) cut(pos int, what string) (string, int, error) {
	l, pos, err := r.length(pos, what)
	if err != nil || !r.building {
		return "", pos + l, err
	}
	return r.text[pos : pos+l], pos + l, nil
}

// readTree reads the subtree at pos (a nil node on the first pass).
func (r *treeReader) readTree(pos int) (*xmltree.Node, int, error) {
	if pos >= len(r.data) {
		return nil, 0, fmt.Errorf("%w: truncated tree node", ErrCodecCorrupt)
	}
	kind := xmltree.Kind(r.data[pos])
	name, pos, err := r.cut(pos+1, "name length")
	if err != nil {
		return nil, 0, err
	}
	value, pos, err := r.cut(pos, "value length")
	if err != nil {
		return nil, 0, err
	}
	// A kind carries the fields its constructor takes.
	switch kind {
	case xmltree.KindElement:
		value = ""
	case xmltree.KindText, xmltree.KindComment:
		name = ""
	case xmltree.KindAttribute, xmltree.KindProcInst:
	default:
		return nil, 0, fmt.Errorf("%w: tree node kind %d", ErrCodecCorrupt, kind)
	}
	var n *xmltree.Node
	if r.building {
		n = r.slab.New(kind, name, value)
	}
	r.nodes++
	if pos, err = r.readList(n, pos, true); err == nil {
		pos, err = r.readList(n, pos, false)
	}
	return n, pos, err
}

// readList reads a count and as many subtrees — the attributes of n, or
// its children — and attaches them.
func (r *treeReader) readList(n *xmltree.Node, pos int, attrs bool) (int, error) {
	count, pos, err := r.length(pos, "node count")
	if err != nil {
		return 0, err
	}
	r.links += count
	attach := (*xmltree.Node).AppendChild
	if attrs {
		attach = (*xmltree.Node).AppendAttr
	}
	if n != nil {
		r.slab.Reserve(n, attrs, count)
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

// appendCodecString and readCodecString delegate to the shared
// length-prefixed string codec in internal/labels, wrapping decode
// failures in this package's corruption error.
func appendCodecString(out []byte, s string) []byte { return labels.AppendString(out, s) }

func readCodecString(data []byte, pos int) (string, int, error) {
	s, next, err := labels.CutString(data, pos)
	if err != nil {
		return "", 0, fmt.Errorf("%w: %v", ErrCodecCorrupt, err)
	}
	return s, next, nil
}
