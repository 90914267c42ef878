// Quickstart: parse a document, label it with a dynamic scheme, apply
// structural updates without relabelling, evaluate XPath axes from the
// labels alone, and round-trip the Definition 2 encoding table.
package main

import (
	"fmt"
	"log"
	"os"

	"xmldyn"
)

func main() {
	// The paper's Figure 1(a) sample document.
	doc := xmldyn.SampleBook()

	// Label it with QED: the quaternary scheme of §4 that never
	// relabels existing nodes.
	s, err := xmldyn.Open(doc, "qed")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== labels after initial bulk load ==")
	printLabels(s)

	// Structural updates: a new element between author and publisher,
	// a subtree, and an attribute.
	author := doc.FindElement("author")
	translator, err := s.InsertAfter(author, "translator")
	if err != nil {
		log.Fatal(err)
	}
	if err := s.SetText(translator, "J. Doe"); err != nil {
		log.Fatal(err)
	}
	chapter := xmldyn.NewElement("chapter")
	if err := chapter.AppendChild(xmldyn.NewText("Once upon a time...")); err != nil {
		log.Fatal(err)
	}
	if err := s.AppendSubtree(doc.Root(), chapter); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== after updates: existing labels unchanged, order maintained ==")
	printLabels(s)
	st := s.Labeling().Stats()
	fmt.Printf("relabelled nodes: %d (QED's §4 guarantee)\n", st.Relabeled)
	if st.Relabeled != 0 {
		log.Fatalf("QED relabelled %d nodes, want 0", st.Relabeled)
	}
	if err := xmldyn.VerifyOrder(s); err != nil {
		log.Fatal(err)
	}

	// XPath from labels alone: which nodes are descendants of
	// publisher, decided purely by label comparison.
	eng := xmldyn.LabelQuery(s)
	publisher := doc.FindElement("publisher")
	desc, err := eng.Select(publisher, xmldyn.AxisDescendant, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== descendants of publisher, from labels alone ==")
	for _, n := range desc {
		fmt.Printf("  %s (%s)\n", s.Labeling().Label(n), n.Name())
	}

	// Location-path queries.
	hits, err := xmldyn.Query(s, "/book/publisher//name")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n/book/publisher//name -> %s = %q\n", hits[0].Name(), hits[0].Text())

	// The encoding scheme (Definition 2): table out, document back.
	fmt.Println("\n== encoding table (Figure 2 style) ==")
	enc := xmldyn.Encode(s)
	if err := enc.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
	re, err := xmldyn.Reconstruct(enc.Table())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreconstruction identical: %v\n", re.XML() == doc.XML())
	if re.XML() != doc.XML() {
		log.Fatal("reconstruction differs from the document")
	}
}

func printLabels(s *xmldyn.Session) {
	doc := s.Document()
	doc.WalkLabelled(func(n *xmldyn.Node) bool {
		fmt.Printf("  %-12s %s\n", s.Labeling().Label(n), n.Name())
		return true
	})
}
