// Package workload generates the update streams of the paper's §5.1
// Compact-Encoding scenarios: "frequent random updates, frequent uniform
// updates and skewed frequent updates (frequent updates at a fixed
// position)", plus the deletion mixes and bulk loads the other probes
// need. The paper ships no datasets (it is a survey); these generators
// are the documented substitution (docs/EXPERIMENTS.md).
package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// Kind names an update stream shape.
type Kind int

// The §5.1 scenario shapes plus supporting mixes.
const (
	// Random picks a random element and a random insertion position
	// for every operation.
	Random Kind = iota
	// Uniform cycles through the document's elements in rotation so
	// updates spread evenly.
	Uniform
	// Skewed inserts at one fixed position: every insertion lands
	// immediately before the same reference node, squeezing codes
	// between a fixed left bound and the newest label.
	Skewed
	// AppendOnly grows the document at the tail (feed-style load).
	AppendOnly
	// Churn mixes insertions with deletions (document turnover).
	Churn
)

// String names the workload shape.
func (k Kind) String() string {
	switch k {
	case Random:
		return "random"
	case Uniform:
		return "uniform"
	case Skewed:
		return "skewed"
	case AppendOnly:
		return "append-only"
	case Churn:
		return "churn"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec describes a workload run.
type Spec struct {
	Kind Kind
	Ops  int
	Seed int64
	// DeleteRatio applies to Churn: fraction of operations that delete.
	DeleteRatio float64
}

// Result summarises a run.
type Result struct {
	Applied int
	Skipped int // operations that had no valid target (e.g. empty doc)
}

// Apply drives the session through the workload. Errors from the update
// layer abort the run (callers probing overflow behaviour inspect the
// session's labeling stats instead; the update layer absorbs relabels
// internally and only fails on hard errors).
func Apply(s *update.Session, spec Spec) (Result, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	doc := s.Document()
	var res Result
	switch spec.Kind {
	case Skewed:
		ref := skewTarget(doc)
		if ref == nil {
			return res, fmt.Errorf("workload: no skew target in document")
		}
		for i := 0; i < spec.Ops; i++ {
			if _, err := s.InsertBefore(ref, "sk"); err != nil {
				return res, fmt.Errorf("workload %s op %d: %w", spec.Kind, i, err)
			}
			res.Applied++
		}
		return res, nil
	case AppendOnly:
		root := doc.Root()
		for i := 0; i < spec.Ops; i++ {
			if _, err := s.AppendChild(root, "ap"); err != nil {
				return res, fmt.Errorf("workload %s op %d: %w", spec.Kind, i, err)
			}
			res.Applied++
		}
		return res, nil
	case Uniform, Random, Churn:
		ratio := spec.DeleteRatio
		if ratio <= 0 {
			ratio = 0.4
		}
		// The document's elements in document order, walked once and then
		// kept in step with every op, so each op picks its ref from the
		// list a fresh walk would return.
		elems := elements(doc)
		for i := 0; i < spec.Ops; i++ {
			at := i % len(elems)
			if spec.Kind != Uniform {
				at = rng.Intn(len(elems))
			}
			ref := elems[at]
			if spec.Kind == Churn && rng.Float64() < ratio && ref != doc.Root() {
				if err := s.Delete(ref); err != nil {
					return res, fmt.Errorf("workload churn delete %d: %w", i, err)
				}
				elems = slices.Delete(elems, at, subtreeEnd(elems, at))
				res.Applied++
				continue
			}
			op := insertOpAround(rng, doc, ref)
			n, err := s.Do(op)
			if err != nil {
				return res, fmt.Errorf("workload %s op %d: %w", spec.Kind, i, err)
			}
			switch op.Kind {
			case update.OpInsertBefore:
			case update.OpInsertFirstChild:
				at++
			default: // after ref or as its last child: past its subtree
				at = subtreeEnd(elems, at)
			}
			elems = slices.Insert(elems, at, n)
			res.Applied++
		}
		return res, nil
	default:
		return res, fmt.Errorf("workload: unknown kind %v", spec.Kind)
	}
}

// insertOpAround builds one random-position insertion op relative to
// ref: before or after it (as its parent's child when ref is the root),
// as its first child or as its last, each a quarter of the time.
func insertOpAround(rng *rand.Rand, doc *xmltree.Document, ref *xmltree.Node) update.Op {
	switch rng.Intn(4) {
	case 0:
		if ref != doc.Root() {
			return update.InsertBeforeOp(ref, "w")
		}
		return update.AppendChildOp(ref, "w")
	case 1:
		if ref != doc.Root() {
			return update.InsertAfterOp(ref, "w")
		}
		return update.AppendChildOp(ref, "w")
	case 2:
		return update.InsertFirstChildOp(ref, "w")
	default:
		return update.AppendChildOp(ref, "w")
	}
}

// skewTarget picks a stable mid-document element whose preceding
// position becomes the fixed insertion point.
func skewTarget(doc *xmltree.Document) *xmltree.Node {
	elems := elements(doc)
	for _, e := range elems {
		if e != doc.Root() {
			return e
		}
	}
	return nil
}

// subtreeEnd returns the index just past elems[at]'s element subtree in
// a document-order list of elements.
func subtreeEnd(elems []*xmltree.Node, at int) int {
	end := at + 1
	for end < len(elems) && elems[at].IsAncestorOf(elems[end]) {
		end++
	}
	return end
}

func elements(doc *xmltree.Document) []*xmltree.Node {
	var out []*xmltree.Node
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		if n.Kind() == xmltree.KindElement {
			out = append(out, n)
		}
		return true
	})
	return out
}

// BaseDocument builds the standard probe document: a modest mixed-shape
// tree, deterministic for a seed. The depth cap is generous because the
// target-driven breadth-first generator only descends when the node
// budget demands it — small targets stay shallow, large ones (the §5.2
// "very large documents") get the depth they need.
func BaseDocument(seed int64, target int) *xmltree.Document {
	if target <= 0 {
		target = 200
	}
	return xmltree.Generate(xmltree.GenOptions{
		Seed: seed, MaxDepth: 12, MaxChildren: 8, AttrProb: 0.25, TargetNodes: target,
	})
}
