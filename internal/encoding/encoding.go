// Package encoding implements the XML encoding scheme of the paper's
// §2.3 (Definition 2): a tabular codification, built on top of any
// labelling scheme, of "the structure of the node sequence in the XML
// tree and the properties and content of each node". Figure 2 is this
// table for the sample document under pre/post labels. The encoding
// must permit "the full reconstruction of the textual XML document";
// Reconstruct builds a document back from the table alone.
package encoding

import (
	"fmt"
	"io"
	"strings"

	"xmldyn/internal/labeling"
	"xmldyn/internal/xmltree"
)

// Row is one table entry: a labelled node with its type, parent label,
// name and value (Figure 2's columns).
type Row struct {
	Label  string
	Kind   xmltree.Kind
	Parent string // parent's label; "" for the root element
	Name   string
	Value  string
}

// Document couples a tree, a labelling scheme and the derived table.
type Document struct {
	doc *xmltree.Document
	lab labeling.Interface
}

// New builds the labeling for doc (if not already built by the caller
// via update.NewSession) and returns the encoded document.
func New(doc *xmltree.Document, lab labeling.Interface) (*Document, error) {
	if err := lab.Build(doc); err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return &Document{doc: doc, lab: lab}, nil
}

// Wrap couples an already-labelled document with its labeling.
func Wrap(doc *xmltree.Document, lab labeling.Interface) *Document {
	return &Document{doc: doc, lab: lab}
}

// Table produces the encoding rows in document order.
func (e *Document) Table() []Row {
	var rows []Row
	e.doc.WalkLabelled(func(n *xmltree.Node) bool {
		l := e.lab.Label(n)
		if l == nil {
			return true
		}
		parent := ""
		if p := xmltree.LabelledParent(n); p != nil {
			if pl := e.lab.Label(p); pl != nil {
				parent = pl.String()
			}
		}
		value := ""
		if n.Kind() == xmltree.KindAttribute {
			value = n.Value()
		} else {
			value = n.Text()
		}
		rows = append(rows, Row{
			Label:  l.String(),
			Kind:   n.Kind(),
			Parent: parent,
			Name:   n.Name(),
			Value:  value,
		})
		return true
	})
	return rows
}

// WriteTable renders the table in the layout of the paper's Figure 2.
func (e *Document) WriteTable(w io.Writer) error {
	rows := e.Table()
	widths := []int{5, 9, 6, 4, 5}
	headers := []string{"Label", "Node Type", "Parent", "Name", "Value"}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{r.Label, kindTitle(r.Kind), r.Parent, r.Name, r.Value}
		for j, c := range cells[i] {
			if len(c) > widths[j] {
				widths[j] = len(c)
			}
		}
	}
	line := func(cols []string) string {
		parts := make([]string, len(cols))
		for j, c := range cols {
			parts[j] = pad(c, widths[j])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(headers)); err != nil {
		return err
	}
	for _, cs := range cells {
		if _, err := fmt.Fprintln(w, line(cs)); err != nil {
			return err
		}
	}
	return nil
}

func kindTitle(k xmltree.Kind) string {
	switch k {
	case xmltree.KindElement:
		return "Element"
	case xmltree.KindAttribute:
		return "Attribute"
	default:
		return k.String()
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Reconstruct rebuilds a document from the table alone, satisfying
// Definition 2's reconstruction requirement. Rows must be in document
// order (Table emits them that way). Element values become single text
// children; comments and processing instructions are outside the
// encoding, as in the paper's Figure 2.
func Reconstruct(rows []Row) (*xmltree.Document, error) {
	doc := xmltree.NewDocument()
	byLabel := make(map[string]*xmltree.Node, len(rows))
	var textFix []*xmltree.Node
	for i, r := range rows {
		switch r.Kind {
		case xmltree.KindElement:
			n := xmltree.NewElement(r.Name)
			if r.Parent == "" {
				if doc.Root() != nil {
					return nil, fmt.Errorf("encoding: two root rows (%q at %d)", r.Name, i)
				}
				if err := doc.SetRoot(n); err != nil {
					return nil, err
				}
			} else {
				p, ok := byLabel[r.Parent]
				if !ok {
					return nil, fmt.Errorf("encoding: row %d (%s): parent label %q not seen", i, r.Label, r.Parent)
				}
				if err := p.AppendChild(n); err != nil {
					return nil, err
				}
			}
			byLabel[r.Label] = n
			if r.Value != "" {
				n.SetValue(r.Value) // stash; converted to text below
				textFix = append(textFix, n)
			}
		case xmltree.KindAttribute:
			p, ok := byLabel[r.Parent]
			if !ok {
				return nil, fmt.Errorf("encoding: attribute row %d (%s): parent %q not seen", i, r.Label, r.Parent)
			}
			if _, err := p.SetAttr(r.Name, r.Value); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("encoding: row %d has unsupported kind %v", i, r.Kind)
		}
	}
	// Element values become text children after the subtree exists, so
	// text follows any element children in serialisation only when the
	// original had it that way; Figure 2's model attaches direct text.
	for _, n := range textFix {
		v := n.Value()
		n.SetValue("")
		if err := n.AppendChild(xmltree.NewText(v)); err != nil {
			return nil, err
		}
	}
	if doc.Root() == nil {
		return nil, fmt.Errorf("encoding: no root row")
	}
	return doc, nil
}
