// Package core implements the paper's primary contribution: the
// evaluation framework of §5 — "a template of properties that are
// representative of the characteristics of a good dynamic labelling
// scheme". It defines the ten framework properties, carries the
// published Figure 7 matrix verbatim, and — going beyond the paper's
// pen-and-paper assessment — derives a *measured* matrix by probing
// live scheme implementations with the §5.1 workloads.
package core

import (
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
)

// Property is one of the eight graded framework properties of §5.1.
// (Document Order and Encoding Representation are classifications, not
// grades; they live directly on Assessment.)
type Property int

// The graded properties, in the column order of Figure 7.
const (
	// PersistentLabels: deletions and insertions never affect existing
	// nodes' labels.
	PersistentLabels Property = iota
	// XPathEvaluations: ancestor-descendant, parent-child and
	// sibling-based relationships are decidable from labels alone.
	XPathEvaluations
	// LevelEncoding: the nesting depth is decidable from the label.
	LevelEncoding
	// OverflowFree: the scheme is not subject to the §4 overflow
	// problem and never relabels under any insertion pattern.
	OverflowFree
	// Orthogonal: the code space mounts on both prefix and containment
	// labelings.
	Orthogonal
	// CompactEncoding: compact storage with constrained growth under
	// random, uniform and skewed update scenarios.
	CompactEncoding
	// DivisionFree: label assignment and insertion never perform
	// division computations.
	DivisionFree
	// NonRecursiveInit: the initial bulk labelling is not recursive.
	NonRecursiveInit
)

// AllProperties lists the graded properties in Figure 7 column order.
var AllProperties = [...]Property{
	PersistentLabels, XPathEvaluations, LevelEncoding, OverflowFree,
	Orthogonal, CompactEncoding, DivisionFree, NonRecursiveInit,
}

// String returns the property's column heading.
func (p Property) String() string {
	switch p {
	case PersistentLabels:
		return "Persistent Labels"
	case XPathEvaluations:
		return "XPath Eval."
	case LevelEncoding:
		return "Level Enc."
	case OverflowFree:
		return "Overflow Prob."
	case Orthogonal:
		return "Orthogonal"
	case CompactEncoding:
		return "Compact Enc."
	case DivisionFree:
		return "Division Comp."
	case NonRecursiveInit:
		return "Recursion Alg."
	default:
		return fmt.Sprintf("property(%d)", int(p))
	}
}

// Short returns the two-letter column abbreviation used in rendering.
func (p Property) Short() string {
	switch p {
	case PersistentLabels:
		return "Pe"
	case XPathEvaluations:
		return "XP"
	case LevelEncoding:
		return "Lv"
	case OverflowFree:
		return "Ov"
	case Orthogonal:
		return "Or"
	case CompactEncoding:
		return "Cm"
	case DivisionFree:
		return "Dv"
	case NonRecursiveInit:
		return "Rc"
	default:
		return "??"
	}
}

// Compliance is the paper's three-level grade: "Full (F) compliance;
// Partial (P) compliance and No (N) compliance".
type Compliance int

// Grades.
const (
	None Compliance = iota
	Partial
	Full
)

// String renders the grade as in Figure 7.
func (c Compliance) String() string {
	switch c {
	case Full:
		return "F"
	case Partial:
		return "P"
	default:
		return "N"
	}
}

// Assessment is one matrix row: a scheme's classification and grades.
type Assessment struct {
	Scheme   string
	Order    labels.Order
	Encoding labels.Rep
	Grades   map[Property]Compliance
}

// Grade returns the grade for p (None when absent).
func (a Assessment) Grade(p Property) Compliance { return a.Grades[p] }

// FullCount returns how many properties the scheme fully satisfies —
// the figure behind §5.2's finding that "the CDQS labelling scheme
// satisfies the greater number of properties".
func (a Assessment) FullCount() int {
	n := 0
	for _, p := range AllProperties {
		if a.Grades[p] == Full {
			n++
		}
	}
	return n
}

// Signature renders the grade vector, used by the §5.2 "no two schemes
// share the same properties" analysis.
func (a Assessment) Signature() string {
	s := a.Order.String() + "/" + a.Encoding.String()
	for _, p := range AllProperties {
		s += "/" + a.Grades[p].String()
	}
	return s
}

// SchemeUnderTest bundles everything the probes need to evaluate one
// scheme implementation. Its registry row is the one place a scheme's
// Figure 7 facts are stated; the division and recursion grades are
// measured from its algebra's Counters.
type SchemeUnderTest struct {
	Name    string
	Factory labeling.Factory
	// Order and Encoding are definitional classifications (§3.1, §5.1).
	Order    labels.Order
	Encoding labels.Rep
	// RangeFactory, when non-nil, is the scheme's containment mounting
	// (the orthogonality witness).
	RangeFactory labeling.Factory
	// Scale shrinks probe workloads for expensive schemes (prime
	// recomputes a CRT per insertion). 0 means 1.0.
	Scale float64
	// UniqueLabels is false for schemes with the documented LSDX
	// uniqueness defect; their order verification is reported, not
	// asserted.
	UniqueLabels bool
	// InMatrix marks the twelve schemes that appear in the published
	// Figure 7 (extras like CDBS, Com-D, Prime and DDE are measured
	// but have no published row).
	InMatrix bool
}
