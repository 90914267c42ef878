// Package labels defines the ordered code algebra that sibling positional
// identifiers are drawn from, plus the storage primitives (bit strings,
// quaternary strings, variable-length integers, run-length compression)
// shared by the concrete labelling schemes.
//
// The paper's "Orthogonal Labelling Scheme" property (§5.1) observes that
// code spaces such as QED, CDQS and vectors can be mounted on either
// prefix schemes or containment schemes. This package is the realisation
// of that observation: an Algebra is a totally ordered space of codes
// supporting bulk assignment and between-insertion, and the structural
// labelings in internal/schemes consume any Algebra.
package labels

import (
	"errors"
	"fmt"
)

// Rep classifies a scheme's storage representation (paper §5.1, "Encoding
// Representation").
type Rep uint8

// Storage representations.
const (
	RepFixed Rep = iota
	RepVariable
)

// String renders the representation as printed in Figure 7.
func (r Rep) String() string {
	if r == RepFixed {
		return "Fixed"
	}
	return "Variable"
}

// Order classifies the document-ordering method (paper §3.1).
type Order uint8

// Document order methods.
const (
	OrderGlobal Order = iota
	OrderLocal
	OrderHybrid
)

// String renders the order method as printed in Figure 7.
func (o Order) String() string {
	switch o {
	case OrderGlobal:
		return "Global"
	case OrderLocal:
		return "Local"
	default:
		return "Hybrid"
	}
}

// Code is one positional identifier: an immutable, ordered, storable
// value. Codes from different algebras must never be mixed.
type Code interface {
	fmt.Stringer
	// Bits is the storage cost of the code in bits, including any
	// per-code framing the scheme requires (length fields, separators).
	Bits() int
}

// Errors reported by algebras.
var (
	// ErrNeedRelabel reports that the requested insertion cannot be
	// served without changing existing codes (e.g. no integer gap
	// remains). The caller relabels and retries; every relabelled node
	// is what the paper's Persistent-Labels property counts.
	ErrNeedRelabel = errors.New("labels: insertion requires relabelling existing codes")
	// ErrOverflow reports that the scheme's fixed capacity is exhausted
	// (the overflow problem, paper §4).
	ErrOverflow = errors.New("labels: code capacity overflow")
	// ErrBadCode reports a code value foreign to the algebra.
	ErrBadCode = errors.New("labels: foreign or malformed code")
)

// Algebra is a totally ordered code space.
//
// Assign produces n codes in strictly ascending order for initial
// document loading; the result is a read-only view of a row the whole
// process shares (Bulk) — index it, copy out of it, never write it, and
// an append copies. Compare orders any two codes of the algebra.
//
// Between produces a code strictly between left and right. Its
// neighbour contract:
//   - a nil left means "before the first code", a nil right means
//     "after the last code";
//   - a neighbour of another type is refused with ErrBadCode, and so is
//     the other boxed form of the algebra's own code (a value where the
//     algebra mints pointers, or a pointer where it mints values): every
//     Between reads its neighbours through Neighbours;
//   - a refused Between returns a nil code;
//   - LSDX and Com-D make a code for any pair, out of order too: their
//     published rules do not check it, which is their uniqueness defect.
type Algebra interface {
	Assign(n int) ([]Code, error)
	Between(left, right Code) (Code, error)
	Compare(a, b Code) int
}

// Neighbours reads the neighbours handed to a Between as P, the one
// form of the algebra's codes: nil, an open end, is P's zero value, and
// any other type, the other boxed form of P's code included, is
// ErrBadCode.
func Neighbours[P Code](left, right Code) (l, r P, err error) {
	l, okL := left.(P)
	r, okR := right.(P)
	switch {
	case !okL && left != nil:
		err = fmt.Errorf("%w: %T is not a %T", ErrBadCode, left, l)
	case !okR && right != nil:
		err = fmt.Errorf("%w: %T is not a %T", ErrBadCode, right, r)
	default:
		return l, r, nil
	}
	var zero P
	return zero, zero, err
}

// Counters is what the framework grades an algebra's bulk labelling
// on: the Division-Computation and Recursive-Algorithm properties
// (Figure 7's last two columns). Only an algebra that divides or
// recurses keeps them, and says so with a Counters() *Counters method;
// the framework reads any other as dividing and recursing never.
type Counters struct {
	Divisions    int64 // arithmetic divisions performed
	MaxRecursion int   // deepest recursion observed during Assign
}

// TotalBits sums the storage cost of a code slice.
func TotalBits(codes []Code) int {
	total := 0
	for _, c := range codes {
		total += c.Bits()
	}
	return total
}

// CheckAscending verifies that codes are in strictly ascending order
// under cmp; it returns the offending index or -1.
func CheckAscending(codes []Code, cmp func(a, b Code) int) int {
	for i := 1; i < len(codes); i++ {
		if cmp(codes[i-1], codes[i]) >= 0 {
			return i
		}
	}
	return -1
}
