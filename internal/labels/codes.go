package labels

import (
	"fmt"
	"strings"
)

// The chunks of a Codes: each starts at its minimum and doubles, up to
// 512 B of headers and 256 B of digits. The minimums, 128 B and 32 B,
// are the starts that allocated least on a recovery of 64 documents
// (docs/EXPERIMENTS.md): a labelling that is used for a few codes and
// dropped leaves the unused end of its last chunks behind. A code of
// fixed size (IntCode, a vector or QRS code) is all header: its
// algebra cuts it from a chunk of 8 doubling to 32 such codes.
const (
	HeadsMin, HeadsMax     = 8, 32
	qDigitsMin, qDigitsMax = 32, 256
)

// spelling is a code type Codes mints: a string whose insertion rule
// makes the new code a prefix of a neighbour followed by a short suffix.
// left.split(right) is that rule (BetweenQStrings', BetweenBitStrings');
// it writes nothing.
type spelling[S any] interface {
	~string
	Code
	split(right S) (base S, suffix string, err error)
}

// QCodes mints QED and CDQS codes, BitCodes ImprovedBinary and CDBS
// codes.
type (
	QCodes   = Codes[QString, *QString]
	BitCodes = Codes[BitString, *BitString]
)

// Codes mints the codes of one labelling. P = *S is the one boxed form of
// such a code — the pointer boxes as a Code for free — and Between cuts
// both halves of it from chunks instead of allocating them per code: the
// symbols are written into an append-only string arena (a
// strings.Builder never rewrites bytes it has handed out), the header
// into a []S that is replaced when full, never grown (Cut). So a code,
// once handed out, is never written again. Each chunk starts small and
// doubles up to its cap; a code of more than 64 symbols that does not
// fit is a string of its own. A live code keeps its two chunks
// reachable: at most 768 B, or 512 B and itself. A Codes serves one
// writer at a time (the labelling's); bulk codes are not cut from it but
// boxed into their row's own slice, which the process shares (Bulk).
type Codes[S spelling[S], P interface {
	*S
	Code
}] struct {
	// Max, when positive, is the longest code Between mints: a longer
	// one is refused with ErrOverflow before anything is cut.
	Max    int
	digits strings.Builder
	heads  []S
}

// Between is the insertion rule of S on what left and right point to
// (nil is an open end), with the result cut from the chunks.
func (c *Codes[S, P]) Between(left, right Code) (Code, error) {
	lp, rp, err := Neighbours[P](left, right)
	if err != nil {
		return nil, err
	}
	var l, r S
	if lp != nil {
		l = *lp
	}
	if rp != nil {
		r = *rp
	}
	base, suffix, err := l.split(r)
	if err != nil {
		return nil, err
	}
	n := len(base) + len(suffix)
	if c.Max > 0 && n > c.Max {
		return nil, fmt.Errorf("%w: a code of %d symbols exceeds the limit of %d", ErrOverflow, n, c.Max)
	}
	var s S
	if n <= c.digits.Cap()-c.digits.Len() {
		s = c.cut(base, suffix)
	} else if size, own := nextChunk(c.digits.Cap(), n, qDigitsMin, qDigitsMax); own {
		// A long code that does not fit is a chunk of its own, sized as
		// a string is, and leaves the arena's room to the short ones.
		s = base + S(suffix)
	} else {
		c.digits.Reset()
		c.digits.Grow(size)
		s = c.cut(base, suffix)
	}
	h := Cut(&c.heads, 1, HeadsMin, HeadsMax)
	h[0] = s
	return P(&h[0]), nil
}

// cut writes base+suffix behind the arena's last code and returns it.
func (c *Codes[S, P]) cut(base S, suffix string) S {
	at := c.digits.Len()
	c.digits.WriteString(string(base))
	c.digits.WriteString(suffix)
	return S(c.digits.String()[at:])
}

// Cut hands out the next n elements of *chunk, zero, from a slice that
// is replaced when it lacks room and never grown, so nothing it handed
// out is written through it again. Each replacement doubles the last
// capacity, from least up to most; a request of more than most/4 that
// does not fit is a slice of its own and leaves the room to short ones.
// A live piece keeps its chunk reachable: at most most elements.
func Cut[T any](chunk *[]T, n, least, most int) []T {
	at := len(*chunk)
	if n > cap(*chunk)-at {
		size, own := nextChunk(cap(*chunk), n, least, most)
		if own {
			return make([]T, n)
		}
		*chunk, at = make([]T, 0, size), 0
	}
	*chunk = (*chunk)[:at+n]
	return (*chunk)[at : at+n : at+n]
}

// nextChunk sizes the chunk that follows one of capacity was, for a
// request of n that did not fit in it; own reports a request long enough
// to be a piece of its own instead.
func nextChunk(was, n, least, most int) (size int, own bool) {
	return max(min(2*was, most), least, n), n > most/4
}
