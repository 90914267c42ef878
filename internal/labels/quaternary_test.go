package labels

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestValidQString(t *testing.T) {
	if !ValidQString("123") || !ValidQString("") {
		t.Fatal("valid rejected")
	}
	if ValidQString("0") || ValidQString("4") || ValidQString("a") {
		t.Fatal("invalid accepted")
	}
}

func TestMustQStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustQString("40")
}

func TestQStringBits(t *testing.T) {
	// Two bits per digit plus the 2-bit separator (paper §4).
	if MustQString("123").Bits() != 8 {
		t.Fatalf("bits: %d", MustQString("123").Bits())
	}
}

func TestBetweenQStringsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	codes := []QString{"2"}
	for i := 0; i < 4000; i++ {
		k := rng.Intn(len(codes) + 1)
		var l, r QString
		if k > 0 {
			l = codes[k-1]
		}
		if k < len(codes) {
			r = codes[k]
		}
		m, err := BetweenQStrings(l, r)
		if err != nil {
			t.Fatalf("step %d between %q %q: %v", i, l, r, err)
		}
		if !m.EndsInTwoOrThree() {
			t.Fatalf("step %d: %q violates the QED terminal-digit invariant", i, m)
		}
		if !ValidQString(string(m)) {
			t.Fatalf("step %d: invalid digits in %q", i, m)
		}
		if l != "" && CompareQStrings(l, m) >= 0 {
			t.Fatalf("step %d: %q not > %q", i, m, l)
		}
		if r != "" && CompareQStrings(m, r) >= 0 {
			t.Fatalf("step %d: %q not < %q", i, m, r)
		}
		codes = append(codes, "")
		copy(codes[k+1:], codes[k:])
		codes[k] = m
	}
	if !sort.SliceIsSorted(codes, func(i, j int) bool {
		return CompareQStrings(codes[i], codes[j]) < 0
	}) {
		t.Fatal("sequence not sorted after insertion storm")
	}
}

// TestBetweenQStringsEqualLengthLastDigit is the regression test for the
// equal-length case where the codes differ only at the final digit.
func TestBetweenQStringsEqualLengthLastDigit(t *testing.T) {
	m, err := BetweenQStrings("2", "3")
	if err != nil {
		t.Fatal(err)
	}
	if CompareQStrings("2", m) >= 0 || CompareQStrings(m, "3") >= 0 {
		t.Fatalf("between 2 and 3: %q not strictly between", m)
	}
	m, err = BetweenQStrings("112", "113")
	if err != nil {
		t.Fatal(err)
	}
	if CompareQStrings("112", m) >= 0 || CompareQStrings(m, "113") >= 0 {
		t.Fatalf("between 112 and 113: %q", m)
	}
}

func TestBetweenQStringsEnds(t *testing.T) {
	// After last: "...2" -> "...3", "...3" -> append 2.
	m, _ := BetweenQStrings("2", "")
	if m != "3" {
		t.Errorf("after 2: %q", m)
	}
	m, _ = BetweenQStrings("3", "")
	if m != "32" {
		t.Errorf("after 3: %q", m)
	}
	// Before first: "...3" -> "...2", "...2" -> last 2 becomes "12".
	m, _ = BetweenQStrings("", "3")
	if m != "2" {
		t.Errorf("before 3: %q", m)
	}
	m, _ = BetweenQStrings("", "2")
	if m != "12" {
		t.Errorf("before 2: %q", m)
	}
	m, _ = BetweenQStrings("", "22")
	if m != "212" {
		t.Errorf("before 22: %q", m)
	}
}

func TestBetweenQStringsErrors(t *testing.T) {
	if _, err := BetweenQStrings("1", "2"); !errors.Is(err, ErrBadCode) {
		t.Errorf("left ending in 1: %v", err)
	}
	if _, err := BetweenQStrings("2", "21"); !errors.Is(err, ErrBadCode) {
		t.Errorf("right ending in 1: %v", err)
	}
	if _, err := BetweenQStrings("3", "2"); !errors.Is(err, ErrBadCode) {
		t.Errorf("out of order: %v", err)
	}
}

func TestAssignCompactQStrings(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 8, 9, 26, 27, 100} {
		codes := AssignCompactQStrings(n)
		if len(codes) != n {
			t.Fatalf("n=%d: %d codes", n, len(codes))
		}
		for i, c := range codes {
			if !c.EndsInTwoOrThree() {
				t.Fatalf("n=%d code %d: %q terminal digit", n, i, c)
			}
			if i > 0 && CompareQStrings(codes[i-1], c) >= 0 {
				t.Fatalf("n=%d: order violated at %d: %q >= %q", n, i, codes[i-1], c)
			}
		}
	}
}

func TestAssignThirdsQStrings(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 9, 18, 100} {
		var depth int
		codes, err := AssignThirdsQStrings(n, &depth)
		if err != nil {
			t.Fatal(err)
		}
		if len(codes) != n {
			t.Fatalf("n=%d: %d codes", n, len(codes))
		}
		for i, c := range codes {
			if c == "" {
				t.Fatalf("n=%d: position %d unassigned", n, i)
			}
			if !c.EndsInTwoOrThree() {
				t.Fatalf("n=%d code %d: %q terminal digit", n, i, c)
			}
			if i > 0 && CompareQStrings(codes[i-1], c) >= 0 {
				t.Fatalf("n=%d: order violated at %d: %q >= %q", n, i, codes[i-1], c)
			}
		}
		if n >= 4 && depth < 2 {
			t.Fatalf("n=%d: expected recursive depth >= 2, got %d", n, depth)
		}
	}
}

func TestAssignThirdsVsCompactSizes(t *testing.T) {
	// CDQS's claim is compactness: its bulk codes must never be longer
	// on average than QED's recursive-thirds codes.
	for _, n := range []int{10, 100, 1000} {
		qed, err := AssignThirdsQStrings(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		cdqs := AssignCompactQStrings(n)
		sum := func(cs []QString) int {
			total := 0
			for _, c := range cs {
				total += len(c)
			}
			return total
		}
		if sum(cdqs) > sum(qed) {
			t.Fatalf("n=%d: CDQS total digits %d > QED %d", n, sum(cdqs), sum(qed))
		}
	}
}

func TestQStreamRoundTrip(t *testing.T) {
	cases := [][]QString{
		nil,
		{"2"},
		{"112", "12", "122", "2", "3"},
		AssignCompactQStrings(50),
	}
	for _, codes := range cases {
		stream := EncodeQStream(codes)
		got, err := DecodeQStream(stream)
		if err != nil {
			t.Fatal(err)
		}
		if len(codes) == 0 {
			// nil round trips to a single empty code by construction;
			// accept nil or one empty code for the degenerate case.
			if len(got) > 1 || (len(got) == 1 && got[0] != "") {
				t.Fatalf("empty stream: %v", got)
			}
			continue
		}
		if len(got) != len(codes) {
			t.Fatalf("round trip length: %d vs %d", len(got), len(codes))
		}
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("code %d: %q vs %q", i, got[i], codes[i])
			}
		}
	}
}

func TestQStreamErrors(t *testing.T) {
	if _, err := DecodeQStream([]byte{1}); !errors.Is(err, ErrBadCode) {
		t.Errorf("short stream: %v", err)
	}
	if _, err := DecodeQStream([]byte{0, 0, 1, 0, 0xFF}); !errors.Is(err, ErrBadCode) {
		t.Errorf("truncated stream: %v", err)
	}
}

func TestQStreamSeparatorProperty(t *testing.T) {
	// Property: any ascending code sequence survives the separator
	// encoding (testing/quick over random storm prefixes).
	f := func(seed int64, sz uint8) bool {
		n := int(sz%64) + 1
		rng := rand.New(rand.NewSource(seed))
		codes := []QString{"2"}
		for i := 0; i < n; i++ {
			k := rng.Intn(len(codes) + 1)
			var l, r QString
			if k > 0 {
				l = codes[k-1]
			}
			if k < len(codes) {
				r = codes[k]
			}
			m, err := BetweenQStrings(l, r)
			if err != nil {
				return false
			}
			codes = append(codes, "")
			copy(codes[k+1:], codes[k:])
			codes[k] = m
		}
		got, err := DecodeQStream(EncodeQStream(codes))
		if err != nil || len(got) != len(codes) {
			return false
		}
		for i := range codes {
			if got[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzQCodesBetween holds QCodes to BetweenQStrings (mintMatchesValues).
// The corpus is testdata/fuzz/FuzzQCodesBetween.
func FuzzQCodesBetween(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x80, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, steps []byte) {
		mintMatchesValues(t, &QCodes{}, steps, BetweenQStrings)
	})
}

// FuzzBitCodesBetween holds BitCodes, limited as CDBS's are, to
// BetweenBitStrings and that limit (mintMatchesValues). The corpus is
// testdata/fuzz/FuzzBitCodesBetween.
func FuzzBitCodesBetween(f *testing.F) {
	const limit = 255
	f.Add([]byte{0, 1, 2, 3, 0x80, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, steps []byte) {
		mintMatchesValues(t, &BitCodes{Max: limit}, steps, func(l, r BitString) (BitString, error) {
			w, err := BetweenBitStrings(l, r)
			if err == nil && len(w) > limit {
				err = fmt.Errorf("%w: a code of %d symbols exceeds the limit of %d", ErrOverflow, len(w), limit)
			}
			return w, err
		})
	})
}

// mintMatchesValues runs steps against c: the input spells a run of
// insertions into one ordered sequence of codes — a byte's low bits pick
// the gap, its top bit asks for the pair reversed, which both must
// refuse — and each result must be what values gives on the codes'
// values, refusals included. After every call every code handed out so
// far must still read what values gave for it, so a write into symbols
// or a header already handed out fails here.
func mintMatchesValues[S spelling[S], P interface {
	*S
	Code
}](t *testing.T, c *Codes[S, P], steps []byte, values func(l, r S) (S, error)) {
	if len(steps) > 1024 {
		steps = steps[:1024]
	}
	var seq []P  // in order
	var want []S // what values gave for seq[i]
	for i, b := range steps {
		k := int(b&0x7f) % (len(seq) + 1)
		var l, r Code // nil: an open end
		var lv, rv S
		if k > 0 {
			l, lv = seq[k-1], *seq[k-1]
		}
		if k < len(seq) {
			r, rv = seq[k], *seq[k]
		}
		if b&0x80 != 0 {
			l, r, lv, rv = r, l, rv, lv
		}
		got, err := c.Between(l, r)
		w, werr := values(lv, rv)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("step %d: Between(%q, %q) = %v, on values: %v", i, lv, rv, err, werr)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("step %d: a refused Between handed out %v", i, got)
			}
			continue
		}
		q := got.(P)
		if *q != w {
			t.Fatalf("step %d: Between(%q, %q) = %q, on values %q", i, lv, rv, *q, w)
		}
		seq = slices.Insert(seq, k, q)
		want = slices.Insert(want, k, w)
		for j := range seq {
			if *seq[j] != want[j] || (j > 0 && seq[j] == seq[j-1]) {
				t.Fatalf("step %d: code %d reads %q, was handed out as %q", i, j, *seq[j], want[j])
			}
		}
	}
}

// TestQCodesRefusesValues: *QString is the one boxed form of a
// quaternary code. A QString value is refused like a foreign code, so a
// call site that boxes one fails instead of passing silently.
func TestQCodesRefusesValues(t *testing.T) {
	var c QCodes
	two := QString("2")
	for _, pair := range [][2]Code{{QString("2"), nil}, {nil, QString("3")}, {&two, QString("3")}, {BitString("01"), nil}} {
		if got, err := c.Between(pair[0], pair[1]); !errors.Is(err, ErrBadCode) || got != nil {
			t.Errorf("Between(%#v, %#v) = %v, %v; want ErrBadCode", pair[0], pair[1], got, err)
		}
	}
	if got, err := c.Between(&two, nil); err != nil || *got.(*QString) != "3" {
		t.Fatalf("Between(&\"2\", nil) = %v, %v", got, err)
	}
}

// TestQCodesChunkCaps pins what a Codes allocates, for quaternary and
// binary codes alike: header chunks of 8 doubling to 32 (512 B), symbol
// chunks of 32 B doubling to 256 B and never more — so a live code keeps
// at most 768 B of chunks reachable — and a string of its own for a code
// of more than 64 symbols that does not fit, which leaves the chunk to
// the short codes after it. A labelling that mints three codes pays for
// eight headers and 32 B of symbols, not for 32 and 256.
func TestQCodesChunkCaps(t *testing.T) {
	t.Run("quaternary", func(t *testing.T) { chunkCaps(t, &QCodes{}, "2", "3") })
	t.Run("binary", func(t *testing.T) { chunkCaps(t, &BitCodes{}, "1", "11") })
}

// chunkCaps mints into c: three codes after-last, then 400 directly
// after lo, each a symbol longer than the last.
func chunkCaps[S spelling[S], P interface {
	*S
	Code
}](t *testing.T, c *Codes[S, P], lo, hi S) {
	var heads, digits []int // each new chunk's capacity
	own := 0                // codes that are strings of their own
	head := int(reflect.TypeFor[S]().Size())
	mint := func(l, r S) S {
		t.Helper()
		var lc, rc Code
		if l != "" {
			lc = P(&l)
		}
		if r != "" {
			rc = P(&r)
		}
		was := c.digits.Len()
		code, err := c.Between(lc, rc)
		if err != nil {
			t.Fatal(err)
		}
		q := code.(P)
		if len(c.heads) == 1 {
			heads = append(heads, cap(c.heads))
		}
		switch {
		case c.digits.Len() == len(*q):
			digits = append(digits, c.digits.Cap())
		case c.digits.Len() == was:
			if len(*q) <= qDigitsMax/4 {
				t.Fatalf("a %d-symbol code is a string of its own", len(*q))
			}
			own++
		}
		if reach := head*cap(c.heads) + c.digits.Cap(); reach > 768 {
			t.Fatalf("chunks of %d headers and %d B of symbols keep %d B reachable", cap(c.heads), c.digits.Cap(), reach)
		}
		return *q
	}
	var q S
	for i := 0; i < 3; i++ {
		q = mint(q, "")
	}
	if !slices.Equal(heads, []int{8}) || !slices.Equal(digits, []int{32}) {
		t.Fatalf("three codes: header chunks %v, symbol chunks %v; want [8], [32]", heads, digits)
	}
	for i := 0; i < 400; i++ {
		hi = mint(lo, hi)
	}
	want := []int{8, 16, 32}
	if !slices.Equal(heads[:len(want)], want) || slices.Max(heads) != HeadsMax || heads[len(heads)-1] != HeadsMax {
		t.Fatalf("header chunks %v: want 8 doubling to %d, and staying there", heads, HeadsMax)
	}
	want = []int{32, 64, 128, 256}
	if !slices.Equal(digits[:len(want)], want) || slices.Max(digits) != qDigitsMax {
		t.Fatalf("symbol chunks %v: want 32 doubling to %d, and never more", digits, qDigitsMax)
	}
	if own < 300 {
		t.Fatalf("%d of the codes past 64 symbols were strings of their own; want most of 336", own)
	}
	// A short code still fits in what the long ones left.
	was := len(digits)
	mint(lo, "")
	if len(digits) != was {
		t.Fatalf("a short code after the long ones opened a chunk of %d", digits[len(digits)-1])
	}
}

// MustQString converts s, panicking on invalid input.
func MustQString(s string) QString {
	if !ValidQString(s) {
		panic(fmt.Sprintf("labels: invalid quaternary string %q", s))
	}
	return QString(s)
}

// ValidQString reports whether s contains only the digits 1-3.
func ValidQString(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '1' || s[i] > '3' {
			return false
		}
	}
	return true
}
