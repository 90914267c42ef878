// Versionstore demonstrates the paper's §5.2 selection guidance: "a
// repository that may want to record document history and enable
// version control would select a labelling scheme supporting persistent
// labels."
//
// The example builds a tiny change-log store that records every edit
// keyed by node label. Under a persistent scheme (QED) the log remains
// valid across arbitrary later edits — a label recorded at version 1
// still identifies the same node at version N. Under DeweyID the same
// workflow breaks: front insertions shift labels, and the change log
// silently points at the wrong nodes.
package main

import (
	"fmt"
	"log"

	"xmldyn"
)

// entry is one change-log record: "at version v, the node labelled l
// got text t".
type entry struct {
	version int
	label   string
	text    string
}

func main() {
	fmt.Println("== version store on a persistent scheme (qed) ==")
	if stale, relabelled := run("qed"); stale != 0 || relabelled != 0 {
		log.Fatalf("qed: %d stale entries and %d relabels, want 0 and 0", stale, relabelled)
	}
	fmt.Println()
	fmt.Println("== the same workflow on DeweyID (not persistent) ==")
	if stale, _ := run("deweyid"); stale == 0 {
		log.Fatal("deweyid: no stale entries, want the front insertions to shift labels")
	}
}

// run replays the journal workflow under scheme and returns how many
// journal entries went stale and how many nodes the scheme relabelled.
func run(scheme string) (stale int, relabelled int64) {
	doc, err := xmldyn.ParseString(
		`<report><section>alpha</section><section>beta</section><section>gamma</section></report>`)
	if err != nil {
		log.Fatal(err)
	}
	s, err := xmldyn.Open(doc, scheme)
	if err != nil {
		log.Fatal(err)
	}

	// Version 1: record the label of every section with its text.
	var journal []entry
	for _, sec := range doc.Root().Children() {
		journal = append(journal, entry{1, s.Labeling().Label(sec).String(), sec.Text()})
	}

	// Versions 2..4: edits that stress label stability — every new
	// section lands at the front.
	for v := 2; v <= 4; v++ {
		n, err := s.InsertFirstChild(doc.Root(), "section")
		if err != nil {
			log.Fatal(err)
		}
		if err := s.SetText(n, fmt.Sprintf("added in v%d", v)); err != nil {
			log.Fatal(err)
		}
		journal = append(journal, entry{v, s.Labeling().Label(n).String(), n.Text()})
	}

	// Replay: does each journal label still identify the node whose
	// text it recorded?
	current := make(map[string]string)
	doc.WalkLabelled(func(n *xmldyn.Node) bool {
		current[s.Labeling().Label(n).String()] = n.Text()
		return true
	})
	for _, e := range journal {
		got, ok := current[e.label]
		status := "ok"
		if !ok || got != e.text {
			status = fmt.Sprintf("STALE (now %q)", got)
			stale++
		}
		fmt.Printf("  v%d %-14s recorded %-14q %s\n", e.version, e.label, e.text, status)
	}
	st := s.Labeling().Stats()
	fmt.Printf("  -> %d of %d journal entries stale; scheme relabelled %d nodes\n",
		stale, len(journal), st.Relabeled)
	return stale, st.Relabeled
}
