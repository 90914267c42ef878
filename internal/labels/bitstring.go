package labels

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitString is a binary string label component as used by the
// ImprovedBinary [13] and CDBS [15] schemes. The symbols are kept as the
// characters '0' and '1'; lexicographic string order (with a proper
// prefix ordering before its extensions) is exactly the schemes' label
// order. Bits reports one bit per symbol: CDBS stores codes with a
// fixed-size length field, which is what makes it subject to the §4
// overflow problem despite its compactness.
//
// As a Code, a binary string is a *BitString (Codes): improvedbinary and
// cdbs accept no other form.
type BitString string

// String returns the printable binary form.
func (b BitString) String() string { return string(b) }

// Bits returns the payload size in bits.
func (b BitString) Bits() int { return len(b) }

// CompareBitStrings orders two binary strings lexicographically, with a
// proper prefix ordering before any of its extensions ("01" < "011").
func CompareBitStrings(a, b BitString) int {
	return strings.Compare(string(a), string(b))
}

// EndsInOne reports whether the code ends with '1' — the ImprovedBinary
// invariant that guarantees a middle code always exists.
func (b BitString) EndsInOne() bool {
	return len(b) > 0 && b[len(b)-1] == '1'
}

// BetweenBitStrings implements the ImprovedBinary/CDBS insertion
// algorithm (paper §3.1.2):
//
//   - insert after the last code:   left ⊕ "1"
//   - insert before the first code: right with its final 1 changed to "01"
//   - insert between two codes: if size(left) >= size(right) the new code
//     is left ⊕ "1", otherwise right with its final 1 changed to "01".
//
// Both inputs, when non-empty, must end in 1; the result always ends in 1.
func BetweenBitStrings(left, right BitString) (BitString, error) {
	base, suffix, err := left.split(right)
	return base + BitString(suffix), err
}

// split is BetweenBitStrings' case analysis: the new code is left or a
// prefix of right followed by "1" or "01".
func (left BitString) split(right BitString) (base BitString, suffix string, err error) {
	if left != "" && !left.EndsInOne() {
		return "", "", fmt.Errorf("%w: left code %q does not end in 1", ErrBadCode, left)
	}
	if right != "" && !right.EndsInOne() {
		return "", "", fmt.Errorf("%w: right code %q does not end in 1", ErrBadCode, right)
	}
	if left != "" && right != "" && CompareBitStrings(left, right) >= 0 {
		return "", "", fmt.Errorf("%w: %q is not before %q", ErrBadCode, left, right)
	}
	if right != "" && (left == "" || len(left) < len(right)) {
		return right[:len(right)-1], "01", nil
	}
	return left, "1", nil
}

// AssignCompactBitStrings is the CDBS bulk-assignment algorithm [15]:
// the i-th of n codes (1-based) is the k-bit binary representation of i
// with trailing zeros removed, where k = ceil(log2(n+1)). The resulting
// codes are lexicographically ordered and provably of minimal total
// length for consecutive insertion-free loading. They are cut from one
// string of exactly that length: n·k symbols less the trailing zeros of
// 1..n, of which there are n − popcount(n).
func AssignCompactBitStrings(n int) []BitString {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n))
	var row strings.Builder
	row.Grow(n*k - n + bits.OnesCount(uint(n)))
	out := make([]BitString, n)
	for i := 1; i <= n; i++ {
		at := row.Len()
		for j := k - 1; j >= bits.TrailingZeros(uint(i)); j-- {
			row.WriteByte('0' + byte(i>>j&1))
		}
		out[i-1] = BitString(row.String()[at:])
	}
	return out
}

// AssignMiddleBitStrings is the ImprovedBinary bulk labelling algorithm
// [13]: the leftmost code is "01", the rightmost "011" (for n >= 2), and
// interior codes are produced by recursively computing the middle code
// between the current bounds with AssignMiddleSelfLabel (BetweenBitStrings
// applied at the ((1+n)/2)-th position). depth, when non-nil, records the
// maximum recursion depth for the framework's Recursive-Algorithm probe.
func AssignMiddleBitStrings(n int, depth *int) ([]BitString, error) {
	switch {
	case n <= 0:
		return nil, nil
	case n == 1:
		return []BitString{"01"}, nil
	}
	out := make([]BitString, n)
	out[0] = "01"
	out[n-1] = "011"
	if err := fillMiddle(out, 0, n-1, 1, depth); err != nil {
		return nil, err
	}
	return out, nil
}

func fillMiddle(out []BitString, lo, hi, d int, depth *int) error {
	if depth != nil && d > *depth {
		*depth = d
	}
	if hi-lo < 2 {
		return nil
	}
	mid := (lo + hi) / 2
	c, err := BetweenBitStrings(out[lo], out[hi])
	if err != nil {
		return err
	}
	out[mid] = c
	if err := fillMiddle(out, lo, mid, d+1, depth); err != nil {
		return err
	}
	return fillMiddle(out, mid, hi, d+1, depth)
}
