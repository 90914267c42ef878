package workload

import (
	"fmt"

	"xmldyn/internal/xmltree"
)

// Shape names an XMark-style document silhouette. The paper's survey
// scenarios (and Cheney's FLUX workloads) stress update mechanisms
// with structurally different documents: broad shallow catalogues,
// deeply nested narrative markup, and the mixed bushy middle ground.
type Shape int

// The document silhouettes the corpus builder can produce.
const (
	// ShapeMixed is the bushy mid-depth profile BaseDocument uses:
	// depth up to 12, fan-out up to 8, attributes and text sprinkled.
	ShapeMixed Shape = iota
	// ShapeWide is a catalogue: one root with all remaining nodes as
	// direct element children (maximum fan-out, depth 1).
	ShapeWide
	// ShapeDeep is a narrative chain: single-child nesting all the way
	// down (maximum depth, fan-out 1).
	ShapeDeep
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case ShapeMixed:
		return "mixed"
	case ShapeWide:
		return "wide"
	case ShapeDeep:
		return "deep"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// ShapeDocument builds a document of the given silhouette with roughly
// target labellable nodes. Mixed documents are randomised but fully
// deterministic for a seed; wide and deep are structural and ignore
// the seed.
func ShapeDocument(shape Shape, seed int64, target int) *xmltree.Document {
	if target < 2 {
		target = 2
	}
	switch shape {
	case ShapeWide:
		return xmltree.GenerateWide(target - 1)
	case ShapeDeep:
		return xmltree.GenerateDeep(target)
	default:
		return BaseDocument(seed, target)
	}
}

// Profile describes a document corpus: how many documents, how big
// each is, and what silhouette they share. The two ends the benchmark
// cares about are many tiny documents (checkpoint and
// name-space pressure) and few huge ones (per-document lock and
// version pressure).
type Profile struct {
	Docs  int
	Nodes int
	Shape Shape
}

// ManyTinyDocs is the high-document-count, small-document profile.
func ManyTinyDocs() Profile { return Profile{Docs: 256, Nodes: 32, Shape: ShapeMixed} }

// FewHugeDocs is the low-document-count, large-document profile.
func FewHugeDocs() Profile { return Profile{Docs: 4, Nodes: 20000, Shape: ShapeMixed} }

// BuildCorpus materialises a profile into named documents, rank order
// matching the Zipf picker's: names[0] is rank 0 (the hottest).
// Deterministic for a seed; each document gets its own derived seed so
// mixed-shape corpora are varied but reproducible.
func BuildCorpus(p Profile, seed int64) (names []string, docs []*xmltree.Document) {
	names = make([]string, p.Docs)
	docs = make([]*xmltree.Document, p.Docs)
	for i := 0; i < p.Docs; i++ {
		names[i] = fmt.Sprintf("doc%04d", i)
		docs[i] = ShapeDocument(p.Shape, seed+int64(i), p.Nodes)
	}
	return names, docs
}
