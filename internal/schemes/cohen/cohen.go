// Package cohen implements the first of the two prefix bit-code schemes
// of Cohen, Kaplan & Milo [4] as described in the paper's §3.1.2: "the
// positional identifier of the first child of node u is 0, of the
// second child is 10, of the third child is 110 and of the nth child is
// (n-1) ones with a 0 concatenated at the end. ... both approaches tend
// to have significant label sizes and consequently large storage costs
// and expensive comparative evaluation costs for even modest document
// sizes."
//
// The paper excludes the scheme from its matrix because it "does not
// support the maintenance of document order under updates": the code
// space admits appends but no order-preserving interior insertion, which
// this implementation reports as ErrNeedRelabel. It is registered as a
// measured-only row so the framework can show exactly which properties
// the exclusion costs.
package cohen

import (
	"fmt"
	"strings"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/prefix"
)

// Code is a unary-length bit code: (n-1) ones followed by a zero.
type Code string

// String implements labels.Code.
func (c Code) String() string { return string(c) }

// Bits implements labels.Code: one bit per symbol.
func (c Code) Bits() int { return len(c) }

// Algebra is the Cohen bit-code algebra.
type Algebra struct {
	counters labels.Counters
}

// NewAlgebra returns a fresh algebra.
func NewAlgebra() *Algebra { return &Algebra{} }

// Name implements labels.Algebra.
func (a *Algebra) Name() string { return "cohen-bitcode" }

// Counters implements labels.Instrumented.
func (a *Algebra) Counters() *labels.Counters { return &a.counters }

// Traits implements labels.Algebra.
func (a *Algebra) Traits() labels.Traits {
	return labels.Traits{
		Encoding:      labels.RepVariable,
		DivisionFree:  true,
		RecursiveInit: false,
		OverflowFree:  false,
		Orthogonal:    false,
	}
}

// codeFor returns the identifier of the i-th child (0-based): i ones
// and a terminal zero.
func codeFor(i int) Code {
	return Code(strings.Repeat("1", i) + "0")
}

// bulk holds the bulk codes every algebra of this package shares.
var bulk = labels.BulkFor("cohen")

// Assign implements labels.Algebra: one-bit growth per sibling, the
// "significant label sizes" of §3.1.2 (the n-th code is n bits long).
func (a *Algebra) Assign(n int) ([]labels.Code, error) { return bulk.Assign(n, &a.counters, a.assign) }

func (a *Algebra) assign(n int) ([]labels.Code, error) {
	a.counters.Assigns++
	if n <= 0 {
		return nil, nil
	}
	out := make([]labels.Code, n)
	for i := 0; i < n; i++ {
		out[i] = codeFor(i)
	}
	return out, nil
}

// Between implements labels.Algebra. Appending after the last code is
// the only order-preserving insertion: between "...10" and "...110"
// no code of the scheme's shape fits, so interior and before-first
// insertions require relabelling — the reason the paper excludes the
// scheme from its dynamic survey.
func (a *Algebra) Between(left, right labels.Code) (labels.Code, error) {
	a.counters.Betweens++
	l, err := toCode(left)
	if err != nil {
		return nil, err
	}
	r, err := toCode(right)
	if err != nil {
		return nil, err
	}
	switch {
	case l == "" && r == "":
		return codeFor(0), nil
	case r == "":
		// After last: one more leading 1 than the last code.
		return codeFor(len(l)), nil
	default:
		a.counters.RelabelErrors++
		return nil, fmt.Errorf("%w: cohen bit codes admit no insertion before %q", labels.ErrNeedRelabel, r)
	}
}

// Compare implements labels.Algebra: the code length (number of ones)
// is the sibling position; lexicographic comparison agrees because
// '0' < '1' makes a shorter code's terminal zero decide.
func (a *Algebra) Compare(x, y labels.Code) int {
	return strings.Compare(string(x.(Code)), string(y.(Code)))
}

func toCode(c labels.Code) (Code, error) {
	if c == nil {
		return "", nil
	}
	cc, ok := c.(Code)
	if !ok {
		return "", fmt.Errorf("%w: %T is not a cohen bit code", labels.ErrBadCode, c)
	}
	return cc, nil
}

// New returns a Cohen bit-code prefix labeling.
func New() labeling.Interface {
	return prefix.New(prefix.Config{
		Name:    "cohen",
		Algebra: NewAlgebra(),
	})
}

// Factory returns fresh instances.
func Factory() labeling.Factory {
	return func() labeling.Interface { return New() }
}
