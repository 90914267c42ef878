package xmltree

import (
	"fmt"
	"io"
	"strings"
)

// SerializeOptions controls textual XML output.
type SerializeOptions struct {
	// Indent, when non-empty, pretty-prints with the given unit (e.g.
	// "  "). Text-bearing elements are kept on one line.
	Indent string
}

// WriteXML serialises the document as textual XML. The encoding scheme
// definition (paper Definition 2) requires that the full textual document
// be reconstructible from the tree; this is the reconstruction path.
func (d *Document) WriteXML(w io.Writer, opt SerializeOptions) error {
	x := xmlWriter{w: w, indent: opt.Indent}
	for _, c := range d.node.Source().children() {
		x.node(c, 0, opt.Indent != "")
		if opt.Indent != "" {
			x.put("\n")
		}
	}
	return x.err
}

// XML returns the serialised document as a string.
func (d *Document) XML() string {
	var sb strings.Builder
	_ = d.WriteXML(&sb, SerializeOptions{})
	return sb.String()
}

// IndentedXML returns the document pretty-printed with two-space indents.
func (d *Document) IndentedXML() string {
	var sb strings.Builder
	_ = d.WriteXML(&sb, SerializeOptions{Indent: "  "})
	return sb.String()
}

// OuterXML serialises the subtree rooted at n.
func OuterXML(n *Node) string {
	var sb strings.Builder
	x := xmlWriter{w: &sb}
	x.node(n, 0, false)
	return sb.String()
}

// xmlWriter writes a document to w piece by piece: nothing is formatted
// or boxed on the way, so a writer that has the room allocates nothing.
// It keeps the first error and writes nothing after it.
type xmlWriter struct {
	w      io.Writer
	indent string // SerializeOptions.Indent
	pad    string // indent repeated, as deep as the walk has been
	err    error
}

func (x *xmlWriter) put(parts ...string) {
	for _, p := range parts {
		if x.err == nil {
			_, x.err = io.WriteString(x.w, p)
		}
	}
}

func (x *xmlWriter) escaped(r *strings.Replacer, s string) {
	if x.err == nil {
		_, x.err = r.WriteString(x.w, s)
	}
}

// node writes the subtree at n; pretty puts it on lines of its own,
// indented for depth.
func (x *xmlWriter) node(n *Node, depth int, pretty bool) {
	n = n.Source()
	ind := ""
	if pretty {
		for len(x.pad) < depth*len(x.indent) {
			x.pad += x.indent
		}
		ind = x.pad[:depth*len(x.indent)]
	}
	switch n.kind {
	case KindText:
		x.escaped(textEscaper, n.value)
	case KindComment:
		x.put(ind, "<!--", n.value, "-->")
	case KindProcInst:
		x.put(ind, "<?", n.name, " ", n.value, "?>")
	case KindAttribute:
		x.put(" ", n.name, `="`)
		x.escaped(attrEscaper, n.value)
		x.put(`"`)
	case KindElement:
		x.put(ind, "<", n.name)
		for _, a := range n.attributes() {
			x.node(a, depth, pretty)
		}
		kids := n.children()
		if len(kids) == 0 {
			x.put("/>")
			return
		}
		x.put(">")
		// Text-bearing elements are kept on one line, subtree and all.
		lines := pretty && !textOnly(n)
		for _, c := range kids {
			if lines {
				x.put("\n")
			}
			x.node(c, depth+1, lines)
		}
		if lines {
			x.put("\n", ind)
		}
		x.put("</", n.name, ">")
	default:
		if x.err == nil {
			x.err = fmt.Errorf("xmltree: cannot serialise %v node", n.kind)
		}
	}
}

func textOnly(n *Node) bool {
	for _, c := range n.children() {
		if c.kind != KindText {
			return false
		}
	}
	return true
}

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

var attrEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\n", "&#10;", "\t", "&#9;",
)
