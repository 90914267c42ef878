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
	Batches int // batched transactions committed (ApplyBatched only)
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
	case Uniform:
		for i := 0; i < spec.Ops; i++ {
			elems := elements(doc)
			ref := elems[i%len(elems)]
			if err := insertAround(s, rng, doc, ref); err != nil {
				return res, fmt.Errorf("workload %s op %d: %w", spec.Kind, i, err)
			}
			res.Applied++
		}
		return res, nil
	case Random:
		for i := 0; i < spec.Ops; i++ {
			elems := elements(doc)
			ref := elems[rng.Intn(len(elems))]
			if err := insertAround(s, rng, doc, ref); err != nil {
				return res, fmt.Errorf("workload %s op %d: %w", spec.Kind, i, err)
			}
			res.Applied++
		}
		return res, nil
	case Churn:
		ratio := spec.DeleteRatio
		if ratio <= 0 {
			ratio = 0.4
		}
		for i := 0; i < spec.Ops; i++ {
			elems := elements(doc)
			ref := elems[rng.Intn(len(elems))]
			if rng.Float64() < ratio && ref != doc.Root() {
				if err := s.Delete(ref); err != nil {
					return res, fmt.Errorf("workload churn delete %d: %w", i, err)
				}
				res.Applied++
				continue
			}
			if err := insertAround(s, rng, doc, ref); err != nil {
				return res, fmt.Errorf("workload churn insert %d: %w", i, err)
			}
			res.Applied++
		}
		return res, nil
	default:
		return res, fmt.Errorf("workload: unknown kind %v", spec.Kind)
	}
}

// ApplyBatched drives the same scenarios as Apply but groups the
// update stream into batched transactions of up to batchSize ops each
// (update.Session.Apply), so document order is verified once per batch
// instead of once per op on sessions with auto-verify. Refs are chosen
// against the document state at batch-assembly time; within a churn
// batch, targets that fall inside an already-doomed subtree are
// re-rolled (falling back to a root append) so no op references a node
// another op in the same batch deletes and exactly spec.Ops operations
// are applied, matching Apply.
func ApplyBatched(s *update.Session, spec Spec, batchSize int) (Result, error) {
	if batchSize <= 1 {
		return Apply(s, spec)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	doc := s.Document()
	var res Result
	commit := func(ops []update.Op) error {
		if len(ops) == 0 {
			return nil
		}
		if _, err := s.Apply(ops); err != nil {
			return err
		}
		res.Applied += len(ops)
		res.Batches++
		return nil
	}
	var skewRef *xmltree.Node
	if spec.Kind == Skewed {
		if skewRef = skewTarget(doc); skewRef == nil {
			return res, fmt.Errorf("workload: no skew target in document")
		}
	}
	ratio := spec.DeleteRatio
	if ratio <= 0 {
		ratio = 0.4
	}
	for done := 0; done < spec.Ops; {
		n := batchSize
		if rest := spec.Ops - done; rest < n {
			n = rest
		}
		var ops []update.Op
		switch spec.Kind {
		case Skewed:
			for i := 0; i < n; i++ {
				ops = append(ops, update.InsertBeforeOp(skewRef, "sk"))
			}
		case AppendOnly:
			root := doc.Root()
			for i := 0; i < n; i++ {
				ops = append(ops, update.AppendChildOp(root, "ap"))
			}
		case Uniform, Random:
			elems := elements(doc)
			for i := 0; i < n; i++ {
				var ref *xmltree.Node
				if spec.Kind == Uniform {
					ref = elems[(done+i)%len(elems)]
				} else {
					ref = elems[rng.Intn(len(elems))]
				}
				ops = append(ops, insertOpAround(rng, doc, ref))
			}
		case Churn:
			elems := elements(doc)
			var doomed []*xmltree.Node
			clear := func(ref *xmltree.Node) bool {
				for _, d := range doomed {
					if d == ref || d.IsAncestorOf(ref) {
						return false
					}
				}
				return true
			}
			for i := 0; i < n; i++ {
				ref := elems[rng.Intn(len(elems))]
				for tries := 0; !clear(ref) && tries < 8; tries++ {
					ref = elems[rng.Intn(len(elems))]
				}
				if !clear(ref) {
					// Re-rolls exhausted: the root is never doomed, so
					// append there rather than shorting the op budget.
					ops = append(ops, update.AppendChildOp(doc.Root(), "w"))
					continue
				}
				if rng.Float64() < ratio && ref != doc.Root() {
					doomed = append(doomed, ref)
					ops = append(ops, update.DeleteOp(ref))
					continue
				}
				ops = append(ops, insertOpAround(rng, doc, ref))
			}
		default:
			return res, fmt.Errorf("workload: unknown kind %v", spec.Kind)
		}
		if err := commit(ops); err != nil {
			return res, fmt.Errorf("workload %s batch at op %d: %w", spec.Kind, done, err)
		}
		done += n
	}
	return res, nil
}

// insertOpAround builds one random-position insertion op relative to
// ref.
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

// insertAround applies one random-position insertion relative to ref.
// The position distribution lives in insertOpAround alone, so the
// single-op and batched streams can never drift apart (the tests that
// compare the two rely on them being identical).
func insertAround(s *update.Session, rng *rand.Rand, doc *xmltree.Document, ref *xmltree.Node) error {
	_, err := s.Do(insertOpAround(rng, doc, ref))
	return err
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
		Seed: seed, MaxDepth: 12, MaxChildren: 8, AttrProb: 0.25, TextProb: 0.3,
		TargetNodes: target,
	})
}
