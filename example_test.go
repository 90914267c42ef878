package xmldyn_test

import (
	"fmt"
	"log"

	"xmldyn"
)

// Example demonstrates the core loop: label, update, inspect.
func Example() {
	doc, err := xmldyn.ParseString("<a><b/><c/></a>")
	if err != nil {
		log.Fatal(err)
	}
	s, err := xmldyn.Open(doc, "qed")
	if err != nil {
		log.Fatal(err)
	}
	n, err := s.InsertAfter(doc.FindElement("b"), "new")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s.Labeling().Label(n))
	fmt.Println(s.Labeling().Stats().Relabeled)
	// Output:
	// 2.13
	// 0
}

// ExampleOpen_deweyID shows Figure 3's DeweyID labels.
func ExampleOpen_deweyID() {
	doc := xmldyn.ExampleTree()
	s, err := xmldyn.Open(doc, "deweyid")
	if err != nil {
		log.Fatal(err)
	}
	doc.WalkLabelled(func(n *xmldyn.Node) bool {
		fmt.Printf("%s %s\n", s.Labeling().Label(n), n.Name())
		return true
	})
	// Output:
	// 1 r
	// 1.1 a
	// 1.1.1 a1
	// 1.1.2 a2
	// 1.2 b
	// 1.2.1 b1
	// 1.3 c
	// 1.3.1 c1
	// 1.3.2 c2
	// 1.3.3 c3
}

// ExampleApplyUpdates runs a textual update script.
func ExampleApplyUpdates() {
	doc, _ := xmldyn.ParseString("<catalog/>")
	s, err := xmldyn.Open(doc, "cdqs")
	if err != nil {
		log.Fatal(err)
	}
	res, err := xmldyn.ApplyUpdates(s, `
		insert node <entry id="1">hello</entry> into /catalog;
		insert node <entry id="0"/> as first into /catalog;
		replace value of node /catalog/entry[@id='1'] with "hi"`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Inserted, res.Replaced)
	fmt.Println(doc.XML())
	// Output:
	// 2 1
	// <catalog><entry id="0"/><entry id="1">hi</entry></catalog>
}

// ExampleQuery evaluates a location path.
func ExampleQuery() {
	s, err := xmldyn.Open(xmldyn.SampleBook(), "ordpath")
	if err != nil {
		log.Fatal(err)
	}
	nodes, err := xmldyn.Query(s, "/book/publisher//name")
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range nodes {
		fmt.Printf("%s = %q\n", n.Name(), n.Text())
	}
	// Output:
	// name = "Destiny Image"
}

// ExampleRepository_Snapshot pins an MVCC snapshot and shows it
// holding perfectly still — with no lock held — while a transaction
// commits next to it (docs/CONCURRENCY.md is the full consistency
// model).
func ExampleRepository_Snapshot() {
	r := xmldyn.NewRepository()
	doc, _ := xmldyn.ParseString("<shelf><book/></shelf>")
	if err := r.Open("books", doc, "qed"); err != nil {
		log.Fatal(err)
	}

	snap, err := r.Snapshot("books")
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()

	// A writer commits after the pin...
	if _, err := r.Batch("books", func(doc *xmldyn.Document, b *xmldyn.Batch) error {
		b.AppendChild(doc.Root(), "book")
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// ...the snapshot still reads the pinned version, the live
	// repository the new one.
	pinned, _ := snap.Query("books", "//book")
	live, _ := r.Query("books", "//book")
	fmt.Printf("snapshot: %d book(s), live: %d book(s)\n", len(pinned), len(live))
	fmt.Println("snapshot nodes frozen:", pinned[0].Frozen())
	// Output:
	// snapshot: 1 book(s), live: 2 book(s)
	// snapshot nodes frozen: true
}

// ExamplePublishedMatrix inspects the paper's Figure 7.
func ExamplePublishedMatrix() {
	for _, row := range xmldyn.PublishedMatrix() {
		if row.Scheme == "cdqs" {
			fmt.Println(row.Scheme, row.Order, row.Encoding,
				row.Grade(xmldyn.OverflowFree), row.Grade(xmldyn.CompactEncoding))
		}
	}
	// Output:
	// cdqs Hybrid Variable F F
}
