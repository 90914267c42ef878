package labels

import (
	"fmt"
	"sort"
	"strings"
)

// QString is a quaternary code as used by the QED [14] and CDQS [16]
// schemes: a string over the digits 1, 2, 3. The digit 0 is reserved as
// the storage separator, which is the mechanism that frees QED from the
// overflow problem — code sizes are delimited by a constant-size
// separator instead of a fixed-width length field (paper §4).
//
// QED's invariant is that every code ends in 2 or 3; that guarantee is
// what makes insertion before, after and between arbitrary codes possible
// without touching neighbours.
//
// As a Code, a quaternary code is a *QString (Codes): qed and cdqs
// accept no other form.
type QString string

// String returns the printable digit form.
func (q QString) String() string { return string(q) }

// Bits returns the storage cost: two bits per digit plus the two-bit
// "00" separator that delimits the code in QED's storage stream.
func (q QString) Bits() int { return 2*len(q) + 2 }

// EndsInTwoOrThree reports the QED code invariant.
func (q QString) EndsInTwoOrThree() bool {
	return len(q) > 0 && (q[len(q)-1] == '2' || q[len(q)-1] == '3')
}

// CompareQStrings orders two quaternary codes lexicographically, a
// proper prefix before its extensions.
func CompareQStrings(a, b QString) int {
	return strings.Compare(string(a), string(b))
}

// BetweenQStrings implements QED insertion (Li & Ling [14]): produce a
// code strictly between left and right, never modifying either. Empty
// left/right mean before-first/after-last. Inputs must satisfy the QED
// invariant (end in 2 or 3); so does the result. The case analysis:
//
//	after last:            left ends 2 -> change it to 3; ends 3 -> append 2
//	before first:          right ends 3 -> change it to 2; ends 2 -> its
//	                       final 2 becomes "12"
//	between, len(l)>=len(r): same as after-last on left
//	between, len(l)<len(r):  same as before-first on right
func BetweenQStrings(left, right QString) (QString, error) {
	base, suffix, err := left.split(right)
	return base + QString(suffix), err
}

// split is BetweenQStrings' case analysis: the new code is a prefix of
// left or right followed by one or two digits.
func (left QString) split(right QString) (base QString, suffix string, err error) {
	if left != "" && !left.EndsInTwoOrThree() {
		return "", "", fmt.Errorf("%w: left QED code %q must end in 2 or 3", ErrBadCode, left)
	}
	if right != "" && !right.EndsInTwoOrThree() {
		return "", "", fmt.Errorf("%w: right QED code %q must end in 2 or 3", ErrBadCode, right)
	}
	if left != "" && right != "" && CompareQStrings(left, right) >= 0 {
		return "", "", fmt.Errorf("%w: %q is not before %q", ErrBadCode, left, right)
	}
	switch {
	case left == "" && right == "":
		return "", "2", nil
	case right == "" || (left != "" && len(left) > len(right)):
		// After-last, or left strictly longer: left and right differ
		// before left's final symbol, so growing left stays below right.
		if left[len(left)-1] == '2' {
			return left[:len(left)-1], "3", nil
		}
		return left, "2", nil
	case left != "" && len(left) == len(right):
		// Equal length: the codes may differ only at the last symbol
		// (e.g. "2" and "3"), so the final symbol must not be bumped;
		// appending the smallest terminal digit is always strictly
		// between.
		return left, "2", nil
	default: // left == "" || len(left) < len(right)
		if right[len(right)-1] == '3' {
			return right[:len(right)-1], "2", nil
		}
		return right[:len(right)-1], "12", nil
	}
}

// AssignCompactQStrings is the CDQS bulk assignment [16]: the n shortest
// valid quaternary codes (digits 1-3, terminal digit 2 or 3), ordered
// lexicographically. Because any lexicographically sorted set of valid
// codes is a legal loading sequence, choosing the shortest codes gives
// the compact assignment that is CDQS's contribution over QED's
// recursive-thirds codes. There are 2*3^(l-1) valid codes of length l.
func AssignCompactQStrings(n int) []QString {
	if n <= 0 {
		return nil
	}
	pool := make([]string, 0, n*2)
	for l := 1; len(pool) < n; l++ {
		// 3^(l-1) prefixes over {1,2,3}, each yielding two codes.
		prefixes := 1
		for i := 1; i < l; i++ {
			prefixes *= 3
		}
		buf := make([]byte, l)
		for p := 0; p < prefixes && len(pool) < n+2*prefixes; p++ {
			v := p
			for j := l - 2; j >= 0; j-- {
				buf[j] = byte('1' + v%3)
				v /= 3
			}
			buf[l-1] = '2'
			pool = append(pool, string(buf))
			buf[l-1] = '3'
			pool = append(pool, string(buf))
		}
	}
	pool = pool[:n]
	sort.Strings(pool)
	out := make([]QString, n)
	for i, s := range pool {
		out[i] = QString(s)
	}
	return out
}

// AssignThirdsQStrings is the QED bulk labelling algorithm [14]: rather
// than a middle split, the recursion computes codes for the (1/3)th and
// (2/3)th positions between the current bounds (GetOneThirdAndTwoThirdCode)
// and recurses into the three segments. depth, when non-nil, records the
// maximum recursion depth for the Recursive-Algorithm probe.
func AssignThirdsQStrings(n int, depth *int) ([]QString, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]QString, n)
	if err := fillThirds(out, -1, n, "", "", 1, depth); err != nil {
		return nil, err
	}
	return out, nil
}

// fillThirds assigns codes for positions strictly between lo and hi,
// where loCode/hiCode are the bounding codes ("" for the open ends).
func fillThirds(out []QString, lo, hi int, loCode, hiCode QString, d int, depth *int) error {
	if depth != nil && d > *depth {
		*depth = d
	}
	gap := hi - lo - 1
	if gap <= 0 {
		return nil
	}
	if gap == 1 {
		c, err := BetweenQStrings(loCode, hiCode)
		if err != nil {
			return err
		}
		out[lo+1] = c
		return nil
	}
	oneThird := lo + (gap+2)/3
	twoThird := lo + (2*gap+2)/3
	if twoThird <= oneThird {
		twoThird = oneThird + 1
	}
	c1, c2, err := oneThirdTwoThirdCodes(loCode, hiCode)
	if err != nil {
		return err
	}
	out[oneThird] = c1
	out[twoThird] = c2
	if err := fillThirds(out, lo, oneThird, loCode, c1, d+1, depth); err != nil {
		return err
	}
	if err := fillThirds(out, oneThird, twoThird, c1, c2, d+1, depth); err != nil {
		return err
	}
	return fillThirds(out, twoThird, hi, c2, hiCode, d+1, depth)
}

// oneThirdTwoThirdCodes computes two codes c1 < c2 strictly between lo
// and hi (the GetOneThirdAndTwoThirdCode function of [14]).
func oneThirdTwoThirdCodes(lo, hi QString) (QString, QString, error) {
	c2, err := BetweenQStrings(lo, hi)
	if err != nil {
		return "", "", err
	}
	c1, err := BetweenQStrings(lo, c2)
	if err != nil {
		return "", "", err
	}
	return c1, c2, nil
}

// EncodeQStream packs a sequence of QED codes into the scheme's storage
// form: two bits per digit (1->01, 2->10, 3->11) with the reserved 00
// separator between codes. This is the mechanism of §4: sizes are never
// stored, so no size field can overflow.
func EncodeQStream(codes []QString) []byte {
	var bits []byte // one byte per bit; packed below
	push2 := func(b1, b0 byte) { bits = append(bits, b1, b0) }
	for i, q := range codes {
		if i > 0 {
			push2(0, 0)
		}
		for j := 0; j < len(q); j++ {
			switch q[j] {
			case '1':
				push2(0, 1)
			case '2':
				push2(1, 0)
			case '3':
				push2(1, 1)
			}
		}
	}
	packed := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b == 1 {
			packed[i/8] |= 1 << (7 - i%8)
		}
	}
	// Prepend the bit count so the stream is self-delimiting.
	out := make([]byte, 4, 4+len(packed))
	n := len(bits)
	out[0], out[1], out[2], out[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	return append(out, packed...)
}

// DecodeQStream unpacks a storage stream produced by EncodeQStream.
func DecodeQStream(stream []byte) ([]QString, error) {
	if len(stream) < 4 {
		return nil, fmt.Errorf("%w: short QED stream", ErrBadCode)
	}
	n := int(stream[0])<<24 | int(stream[1])<<16 | int(stream[2])<<8 | int(stream[3])
	packed := stream[4:]
	if n > len(packed)*8 {
		return nil, fmt.Errorf("%w: truncated QED stream", ErrBadCode)
	}
	if n == 0 {
		return nil, nil
	}
	if n%2 != 0 {
		return nil, fmt.Errorf("%w: odd QED stream length", ErrBadCode)
	}
	var out []QString
	var cur []byte
	for i := 0; i < n; i += 2 {
		b1 := packed[i/8] >> (7 - i%8) & 1
		j := i + 1
		b0 := packed[j/8] >> (7 - j%8) & 1
		v := b1<<1 | b0
		if v == 0 {
			out = append(out, QString(cur))
			cur = nil
			continue
		}
		cur = append(cur, '0'+v)
	}
	return append(out, QString(cur)), nil
}
