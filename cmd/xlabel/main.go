// Command xlabel labels an XML document with a chosen dynamic labelling
// scheme, optionally applies an update script, and prints the labelled
// tree, the encoding table, or query results.
//
// Usage:
//
//	xlabel -scheme qed doc.xml                      # labelled tree
//	xlabel -scheme deweyid -table doc.xml           # encoding table
//	xlabel -scheme ordpath -query //name doc.xml    # location path
//	xlabel -scheme qed -xquf 'insert node <new/> after //b' doc.xml
//	xlabel -schemes                                 # list schemes
//
// The -xquf script is XQuery-Update-style statements separated by ';'
// (grammar in internal/uql), for example
//
//	insert node <preface/> as first into /book;
//	replace value of node //title with "Homecoming";
//	delete node //edition
//
// A statement's path must select exactly one node, except in
// "delete node", which deletes every match.
package main

import (
	"flag"
	"fmt"
	"os"

	"xmldyn"
	"xmldyn/internal/figures"
)

func main() {
	scheme := flag.String("scheme", "qed", "labelling scheme")
	table := flag.Bool("table", false, "print the encoding table instead of the tree")
	query := flag.String("query", "", "evaluate a location path and print matches")
	xquf := flag.String("xquf", "", "XQuery-Update-style script to apply (see internal/uql)")
	save := flag.String("save", "", "write a binary snapshot to this file after updates")
	load := flag.String("load", "", "read the document from a binary snapshot instead of XML")
	list := flag.Bool("schemes", false, "list available schemes")
	stats := flag.Bool("stats", false, "print labeling statistics")
	flag.Parse()

	if *list {
		for _, s := range xmldyn.Schemes() {
			fmt.Println(s)
		}
		return
	}
	opts := options{
		scheme: *scheme, table: *table, query: *query,
		xquf: *xquf, save: *save, load: *load, stats: *stats,
	}
	if err := run(opts, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "xlabel:", err)
		os.Exit(1)
	}
}

type options struct {
	scheme, query, xquf, save, load string
	table, stats                    bool
}

func run(opts options, args []string) error {
	var s *xmldyn.Session
	var doc *xmldyn.Document
	var err error
	if opts.load != "" {
		data, ferr := os.ReadFile(opts.load)
		if ferr != nil {
			return ferr
		}
		s, err = xmldyn.Restore(data)
		if err != nil {
			return err
		}
		doc = s.Document()
	} else {
		switch {
		case len(args) == 0:
			doc = xmldyn.SampleBook() // the paper's Figure 1(a)
		case args[0] == "-":
			doc, err = xmldyn.Parse(os.Stdin)
		default:
			f, ferr := os.Open(args[0])
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			doc, err = xmldyn.Parse(f)
		}
		if err != nil {
			return err
		}
		s, err = xmldyn.Open(doc, opts.scheme)
		if err != nil {
			return err
		}
	}
	if opts.xquf != "" {
		if _, err := xmldyn.ApplyUpdates(s, opts.xquf); err != nil {
			return err
		}
	}
	if opts.save != "" {
		data, err := xmldyn.Save(s)
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.save, data, 0o644); err != nil {
			return err
		}
	}
	table, query, stats := opts.table, opts.query, opts.stats
	switch {
	case query != "":
		nodes, err := xmldyn.Query(s, query)
		if err != nil {
			return err
		}
		for _, n := range nodes {
			fmt.Printf("%s  %s\n", s.Labeling().Label(n), n.Name())
		}
	case table:
		if err := xmldyn.Encode(s).WriteTable(os.Stdout); err != nil {
			return err
		}
	default:
		fmt.Print(figures.RenderLabelledTree(doc, s.Labeling(), nil))
	}
	if stats {
		st := s.Labeling().Stats()
		fmt.Printf("\nassigned %d, relabelled %d (events %d, overflow %d), mean label %.1f bits\n",
			st.Assigned, st.Relabeled, st.RelabelEvents, st.OverflowEvents, xmldyn.MeanLabelBits(s))
	}
	return nil
}
