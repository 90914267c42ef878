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
	for _, c := range d.node.Source().kids {
		if err := writeNode(w, c, opt, 0); err != nil {
			return err
		}
		if opt.Indent != "" {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
	}
	return nil
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
	_ = writeNode(&sb, n, SerializeOptions{}, 0)
	return sb.String()
}

func writeNode(w io.Writer, n *Node, opt SerializeOptions, depth int) error {
	n = n.Source()
	ind := ""
	nl := ""
	if opt.Indent != "" {
		ind = strings.Repeat(opt.Indent, depth)
		nl = "\n"
	}
	switch n.kind {
	case KindText:
		_, err := io.WriteString(w, escapeText(n.value))
		return err
	case KindComment:
		_, err := fmt.Fprintf(w, "%s<!--%s-->", ind, n.value)
		return err
	case KindProcInst:
		_, err := fmt.Fprintf(w, "%s<?%s %s?>", ind, n.name, n.value)
		return err
	case KindAttribute:
		_, err := fmt.Fprintf(w, ` %s="%s"`, n.name, escapeAttr(n.value))
		return err
	case KindElement:
		if _, err := fmt.Fprintf(w, "%s<%s", ind, n.name); err != nil {
			return err
		}
		for _, a := range n.attributes() {
			if err := writeNode(w, a, opt, depth); err != nil {
				return err
			}
		}
		kids := n.children()
		if len(kids) == 0 {
			_, err := io.WriteString(w, "/>")
			return err
		}
		if _, err := io.WriteString(w, ">"); err != nil {
			return err
		}
		inline := opt.Indent == "" || textOnly(n)
		for _, c := range kids {
			if !inline {
				if _, err := io.WriteString(w, nl); err != nil {
					return err
				}
				if err := writeNode(w, c, opt, depth+1); err != nil {
					return err
				}
			} else {
				if err := writeNode(w, c, SerializeOptions{}, 0); err != nil {
					return err
				}
			}
		}
		if !inline {
			if _, err := fmt.Fprintf(w, "%s%s", nl, ind); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "</%s>", n.name)
		return err
	default:
		return fmt.Errorf("xmltree: cannot serialise %v node", n.kind)
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

func escapeText(s string) string { return textEscaper.Replace(s) }
func escapeAttr(s string) string { return attrEscaper.Replace(s) }
