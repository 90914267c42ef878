package workload

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"xmldyn/internal/xmltree"
)

// TestCorpusDigest holds the generated database still: the FNV-64a of
// the names and XML of each corpus the five repository workloads of
// ./bench open (at corpus seed 1), and of BaseDocument at the sizes P1,
// P4 and P7 read (label_storm's document is P7's). A generator change
// that moves one node, name or value changes a digest.
func TestCorpusDigest(t *testing.T) {
	digest := func(names []string, docs []*xmltree.Document) string {
		h := fnv.New64a()
		for i, doc := range docs {
			io.WriteString(h, names[i])
			io.WriteString(h, doc.XML())
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	for _, c := range []struct {
		workload string
		p        Profile
		want     string
	}{
		{"commit_hot", Profile{Docs: 8, Nodes: 96, Shape: ShapeMixed}, "08fcaf21d86d33d1"},
		{"commit_wide", ManyTinyDocs(), "4e2797f1a35e161a"},
		{"read_heavy", FewHugeDocs(), "aad5f315bd43b63c"},
		{"ckpt_restart", Profile{Docs: 64, Nodes: 96, Shape: ShapeMixed}, "8b2103f2b502a558"},
		{"replicate", Profile{Docs: 16, Nodes: 96, Shape: ShapeMixed}, "b0fa344c0b2bded7"},
	} {
		if got := digest(BuildCorpus(c.p, 1)); got != c.want {
			t.Errorf("%s's corpus: digest %s, want %s", c.workload, got, c.want)
		}
	}
	for _, b := range []struct {
		claim string
		nodes int
		want  string
	}{{"P1", 20000, "01b497bdb8c4ab5f"}, {"P4", 2000, "0535b1d3a5702e07"}, {"P7", 1000, "1ec178ed2e300d17"}} {
		doc := BaseDocument(1, b.nodes)
		if got := digest([]string{""}, []*xmltree.Document{doc}); got != b.want {
			t.Errorf("%s's BaseDocument(1, %d): digest %s, want %s", b.claim, b.nodes, got, b.want)
		}
	}
}
