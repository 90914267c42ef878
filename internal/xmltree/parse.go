package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// ParseString parses a document held in a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// Parse reads a complete XML document from r. Text nodes that are all
// whitespace are dropped, as in the paper's example, where indentation
// does not appear as tree nodes. Comments and processing instructions
// are kept (they are not labelled); the XML declaration, DOCTYPE and
// other directives, and text outside the root element are not tree
// nodes. Namespace declarations stay ordinary attributes, so
// serialisation round-trips.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	doc := NewDocument()
	cur := doc.node
	seenRoot := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if cur == doc.node {
				if seenRoot {
					return nil, fmt.Errorf("xmltree: parse: multiple root elements")
				}
				seenRoot = true
			}
			e := NewElement(qname(t.Name))
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					// Namespace declarations are kept as ordinary
					// attributes so serialisation round-trips.
					if _, err := e.SetAttr(xmlnsName(a.Name), a.Value); err != nil {
						return nil, err
					}
					continue
				}
				if _, err := e.SetAttr(qname(a.Name), a.Value); err != nil {
					return nil, err
				}
			}
			if err := cur.AppendChild(e); err != nil {
				return nil, fmt.Errorf("xmltree: parse: %w", err)
			}
			cur = e
		case xml.EndElement:
			if cur == doc.node {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %s", qname(t.Name))
			}
			cur = cur.parent
		case xml.CharData:
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			if cur == doc.node {
				continue // ignore stray top-level whitespace/text
			}
			if err := cur.AppendChild(NewText(s)); err != nil {
				return nil, fmt.Errorf("xmltree: parse: %w", err)
			}
		case xml.Comment:
			if err := cur.AppendChild(NewComment(string(t))); err != nil {
				return nil, fmt.Errorf("xmltree: parse: %w", err)
			}
		case xml.ProcInst:
			if t.Target == "xml" {
				continue // the XML declaration is not a tree node
			}
			if err := cur.AppendChild(NewProcInst(t.Target, string(t.Inst))); err != nil {
				return nil, fmt.Errorf("xmltree: parse: %w", err)
			}
		case xml.Directive:
			// DOCTYPE and friends carry no tree structure; skip.
		}
	}
	if cur != doc.node {
		return nil, fmt.Errorf("xmltree: parse: unexpected EOF inside element %q", cur.name)
	}
	if doc.Root() == nil {
		return nil, fmt.Errorf("xmltree: parse: no root element")
	}
	return doc, nil
}

func qname(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	// encoding/xml resolves prefixes to URIs; a production system would
	// track prefix bindings. For labelling purposes the resolved form is a
	// stable, unique name.
	return n.Space + ":" + n.Local
}

func xmlnsName(n xml.Name) string {
	if n.Space == "xmlns" {
		return "xmlns:" + n.Local
	}
	return "xmlns"
}
