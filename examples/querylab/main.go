// Querylab demonstrates the paper's XPath-Evaluations property (§5.1):
// which axes each labelling scheme can answer *from the node label
// alone*, and that the answers agree with structural ground truth.
//
// Prefix schemes (Full grade) decide ancestor/descendant, parent/child
// and sibling axes from labels; containment schemes with level decide
// parent but not sibling (Partial); QRS and Sector decide only
// containment (Partial, no level).
package main

import (
	"errors"
	"fmt"
	"log"

	"xmldyn"
)

func main() {
	axes := []struct {
		name string
		axis xmldyn.Axis
	}{
		{"descendant", xmldyn.AxisDescendant},
		{"ancestor", xmldyn.AxisAncestor},
		{"child", xmldyn.AxisChild},
		{"parent", xmldyn.AxisParent},
		{"following-sibling", xmldyn.AxisFollowingSibling},
		{"following", xmldyn.AxisFollowing},
	}
	schemes := []string{"qed", "deweyid", "xpath-accelerator", "qrs"}

	fmt.Printf("%-20s", "axis \\ scheme")
	for _, s := range schemes {
		fmt.Printf("  %-18s", s)
	}
	fmt.Println()
	for _, ax := range axes {
		fmt.Printf("%-20s", ax.name)
		want, answered := "", ""
		for _, scheme := range schemes {
			names, ok := evalAxis(scheme, ax.axis)
			if !ok {
				fmt.Printf("  %-18s", "unsupported")
				continue
			}
			if answered == "" {
				want, answered = names, scheme
			} else if names != want {
				log.Fatalf("%s axis: %s answers %q, %s answers %q", ax.name, scheme, names, answered, want)
			}
			fmt.Printf("  %-18s", cell(names))
		}
		fmt.Println()
	}
	fmt.Println("\n(cell = result of evaluating the axis at <editor> from labels alone;")
	fmt.Println(" 'unsupported' cells are the paper's Partial XPath grades made visible)")
}

// evalAxis evaluates axis at <editor> from scheme's labels alone and
// returns the comma-joined names of the nodes it selects; ok is false
// when the scheme's labels cannot decide the axis.
func evalAxis(scheme string, axis xmldyn.Axis) (names string, ok bool) {
	doc := xmldyn.SampleBook()
	s, err := xmldyn.Open(doc, scheme)
	if err != nil {
		log.Fatal(err)
	}
	editor := doc.FindElement("editor")
	eng := xmldyn.LabelQuery(s)
	nodes, err := eng.Select(editor, axis, "")
	if err != nil {
		if errors.Is(err, xmldyn.ErrAxisUnsupported) {
			return "", false
		}
		log.Fatal(err)
	}
	for i, n := range nodes {
		if i > 0 {
			names += ","
		}
		names += n.Name()
	}
	return names, true
}

// cell fits an answer into a table column.
func cell(names string) string {
	if names == "" {
		return "(empty)"
	}
	if len(names) > 18 {
		return names[:15] + "..."
	}
	return names
}
