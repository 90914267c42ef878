// Package figures regenerates the paper's Figures 1-6 from the live
// scheme implementations: the pre/post labelled sample document, its
// encoding table, and the DeweyID, ORDPATH, LSDX and ImprovedBinary
// labelled example trees with the figures' grey (inserted) nodes.
// cmd/figures prints them; the tests pin the label values that are
// legible in the published figures.
package figures

import (
	"fmt"
	"strings"

	"xmldyn/internal/encoding"
	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/improvedbinary"
	"xmldyn/internal/schemes/lsdx"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// Figure renders figure n (1-6) as text.
func Figure(n int) (string, error) {
	switch n {
	case 1:
		return Figure1()
	case 2:
		return Figure2()
	case 3:
		return Figure3()
	case 4:
		return Figure4()
	case 5:
		return Figure5()
	case 6:
		return Figure6()
	default:
		return "", fmt.Errorf("figures: the paper has figures 1-6 (7 is the matrix; see cmd/matrix), got %d", n)
	}
}

// Figure1 renders the sample XML file and its pre/post labelled tree.
func Figure1() (string, error) {
	doc := xmltree.SampleBook()
	lab := containment.NewPrePost()
	if err := lab.Build(doc); err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 1(a): sample XML file\n\n")
	sb.WriteString(doc.IndentedXML())
	sb.WriteString("\nFigure 1(b): preorder/postorder labelled tree\n\n")
	sb.WriteString(RenderLabelledTree(doc, lab, nil))
	return sb.String(), nil
}

// Figure2 renders the encoding table of the sample document.
func Figure2() (string, error) {
	enc, err := encoding.New(xmltree.SampleBook(), containment.NewPrePost())
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 2: an XML encoding of the sample XML file\n\n")
	if err := enc.WriteTable(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Figure3 renders the DeweyID labelled example tree.
func Figure3() (string, error) {
	doc := xmltree.ExampleTree()
	lab := dewey.New()
	if err := lab.Build(doc); err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 3: DeweyID labelled XML tree\n\n")
	sb.WriteString(RenderLabelledTree(doc, lab, nil))
	return sb.String(), nil
}

// canonicalInsertions applies the three grey insertions common to
// Figures 4-6: before the first child of A, after the last child of B,
// and between the first two children of C.
func canonicalInsertions(s *update.Session) (map[*xmltree.Node]bool, error) {
	doc := s.Document()
	grey := make(map[*xmltree.Node]bool, 3)
	g1, err := s.InsertFirstChild(doc.FindElement("a"), "new")
	if err != nil {
		return nil, err
	}
	grey[g1] = true
	g2, err := s.AppendChild(doc.FindElement("b"), "new")
	if err != nil {
		return nil, err
	}
	grey[g2] = true
	g3, err := s.InsertAfter(doc.FindElement("c1"), "new")
	if err != nil {
		return nil, err
	}
	grey[g3] = true
	return grey, nil
}

func greyFigure(title string, lab labeling.Interface) (string, error) {
	doc := xmltree.ExampleTree()
	s, err := update.NewSession(doc, lab)
	if err != nil {
		return "", err
	}
	grey, err := canonicalInsertions(s)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteString("\n(nodes marked * are newly inserted — the figure's grey nodes)\n\n")
	sb.WriteString(RenderLabelledTree(doc, s.Labeling(), grey))
	return sb.String(), nil
}

// Figure4 renders the ORDPATH tree with the grey insertions (expect
// 1.1.-1, 1.3.3 and the careted 1.5.2.1).
func Figure4() (string, error) {
	return greyFigure("Figure 4: ORDPATH labelled XML tree", ordpath.New())
}

// Figure5 renders the LSDX tree with the grey insertions (expect
// 2ab.ab, 2ac.c, 2ad.bb).
func Figure5() (string, error) {
	return greyFigure("Figure 5: LSDX labelled XML tree", lsdx.New())
}

// Figure6 renders the ImprovedBinary tree with the grey insertions.
func Figure6() (string, error) {
	return greyFigure("Figure 6: ImprovedBinary labelled XML tree", improvedbinary.New())
}

// RenderLabelledTree draws the labelled tree, one node per line, with
// box-drawing indentation and the node name in parentheses. Nodes in
// grey are marked with a trailing asterisk.
func RenderLabelledTree(doc *xmltree.Document, lab labeling.Interface, grey map[*xmltree.Node]bool) string {
	var sb strings.Builder
	root := doc.Root()
	if root == nil {
		return ""
	}
	var draw func(n *xmltree.Node, prefix string, last bool, top bool)
	draw = func(n *xmltree.Node, prefix string, last bool, top bool) {
		label := "?"
		if l := lab.Label(n); l != nil {
			label = l.String()
			if label == "" {
				label = "(empty)"
			}
		}
		mark := ""
		if grey[n] {
			mark = " *"
		}
		connector := ""
		childPrefix := prefix
		if !top {
			if last {
				connector = prefix + "└─ "
				childPrefix = prefix + "   "
			} else {
				connector = prefix + "├─ "
				childPrefix = prefix + "│  "
			}
		}
		fmt.Fprintf(&sb, "%s%s (%s)%s\n", connector, label, n.Name(), mark)
		end := xmltree.LabelledChildCount(n) - 1
		for i, k := range xmltree.LabelledChildren(n) {
			draw(k, childPrefix, i == end, false)
		}
	}
	draw(root, "", true, true)
	return sb.String()
}
