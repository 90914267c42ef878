package labels

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestValidBitString(t *testing.T) {
	if !ValidBitString("0101") || !ValidBitString("") {
		t.Fatal("valid strings rejected")
	}
	if ValidBitString("012") || ValidBitString("ab") {
		t.Fatal("invalid strings accepted")
	}
}

func TestMustBitStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustBitString("2")
}

func TestCompareBitStringsPrefixRule(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"01", "011", -1}, // proper prefix is smaller
		{"011", "01", 1},
		{"01", "01", 0},
		{"0101", "011", -1}, // paper Figure 6 neighbours
		{"", "0", -1},
		{"1", "01", 1},
	}
	for _, c := range cases {
		if got := CompareBitStrings(BitString(c.a), BitString(c.b)); got != c.want {
			t.Errorf("Compare(%q,%q)=%d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestBetweenBitStringsFigure6 verifies the three insertion rules against
// the paper's Figure 6 worked examples.
func TestBetweenBitStringsFigure6(t *testing.T) {
	// Insert before the first sibling: last 1 becomes 01.
	got, err := BetweenBitStrings("", "01")
	if err != nil {
		t.Fatal(err)
	}
	if got != "001" {
		t.Errorf("before first of 01: got %q, want 001", got)
	}
	// Insert after the last sibling: extra 1 concatenated.
	got, err = BetweenBitStrings("011", "")
	if err != nil {
		t.Fatal(err)
	}
	if got != "0111" {
		t.Errorf("after last of 011: got %q, want 0111", got)
	}
	// Insert between 01 and 011 (the Figure 6 middle insertion at the
	// top level): expects 0101.
	got, err = BetweenBitStrings("01", "011")
	if err != nil {
		t.Fatal(err)
	}
	if got != "0101" {
		t.Errorf("between 01 and 011: got %q, want 0101", got)
	}
	// size(left) >= size(right): left concatenated with 1.
	got, err = BetweenBitStrings("0101", "011")
	if err != nil {
		t.Fatal(err)
	}
	if got != "01011" {
		t.Errorf("between 0101 and 011: got %q, want 01011", got)
	}
}

func TestBetweenBitStringsErrors(t *testing.T) {
	if _, err := BetweenBitStrings("10", "11"); !errors.Is(err, ErrBadCode) {
		t.Errorf("left not ending in 1: %v", err)
	}
	if _, err := BetweenBitStrings("01", "010"); !errors.Is(err, ErrBadCode) {
		t.Errorf("right not ending in 1: %v", err)
	}
	if _, err := BetweenBitStrings("011", "01"); !errors.Is(err, ErrBadCode) {
		t.Errorf("out of order: %v", err)
	}
	if _, err := BetweenBitStrings("01", "01"); !errors.Is(err, ErrBadCode) {
		t.Errorf("equal codes: %v", err)
	}
}

// TestBetweenBitStringsProperty: the result is always strictly between
// its bounds and ends in 1, under thousands of random insertion
// sequences.
func TestBetweenBitStringsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	codes := []BitString{"01", "011"}
	for i := 0; i < 3000; i++ {
		k := rng.Intn(len(codes) + 1)
		var l, r BitString
		if k > 0 {
			l = codes[k-1]
		}
		if k < len(codes) {
			r = codes[k]
		}
		m, err := BetweenBitStrings(l, r)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !m.EndsInOne() {
			t.Fatalf("step %d: %q does not end in 1", i, m)
		}
		if l != "" && CompareBitStrings(l, m) >= 0 {
			t.Fatalf("step %d: %q not > %q", i, m, l)
		}
		if r != "" && CompareBitStrings(m, r) >= 0 {
			t.Fatalf("step %d: %q not < %q", i, m, r)
		}
		codes = append(codes, "")
		copy(codes[k+1:], codes[k:])
		codes[k] = m
	}
	if !sort.SliceIsSorted(codes, func(i, j int) bool {
		return CompareBitStrings(codes[i], codes[j]) < 0
	}) {
		t.Fatal("final sequence not sorted")
	}
}

func TestAssignCompactBitStrings(t *testing.T) {
	// CDBS worked example: n=7 needs k=3 bits; codes are binary of
	// 1..7 with trailing zeros removed.
	want := []BitString{"001", "01", "011", "1", "101", "11", "111"}
	got := AssignCompactBitStrings(7)
	if len(got) != len(want) {
		t.Fatalf("len=%d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("code %d: got %q, want %q", i, got[i], want[i])
		}
	}
	if AssignCompactBitStrings(0) != nil {
		t.Error("n=0 should be nil")
	}
}

// compactRows are AssignCompactBitStrings(n) for n = 1..20 as the
// algorithm spelled them when each code was a string of its own.
var compactRows = []string{
	"1",
	"01 1",
	"01 1 11",
	"001 01 011 1",
	"001 01 011 1 101",
	"001 01 011 1 101 11",
	"001 01 011 1 101 11 111",
	"0001 001 0011 01 0101 011 0111 1",
	"0001 001 0011 01 0101 011 0111 1 1001",
	"0001 001 0011 01 0101 011 0111 1 1001 101",
	"0001 001 0011 01 0101 011 0111 1 1001 101 1011",
	"0001 001 0011 01 0101 011 0111 1 1001 101 1011 11",
	"0001 001 0011 01 0101 011 0111 1 1001 101 1011 11 1101",
	"0001 001 0011 01 0101 011 0111 1 1001 101 1011 11 1101 111",
	"0001 001 0011 01 0101 011 0111 1 1001 101 1011 11 1101 111 1111",
	"00001 0001 00011 001 00101 0011 00111 01 01001 0101 01011 011 01101 0111 01111 1",
	"00001 0001 00011 001 00101 0011 00111 01 01001 0101 01011 011 01101 0111 01111 1 10001",
	"00001 0001 00011 001 00101 0011 00111 01 01001 0101 01011 011 01101 0111 01111 1 10001 1001",
	"00001 0001 00011 001 00101 0011 00111 01 01001 0101 01011 011 01101 0111 01111 1 10001 1001 10011",
	"00001 0001 00011 001 00101 0011 00111 01 01001 0101 01011 011 01101 0111 01111 1 10001 1001 10011 101",
}

// TestAssignCompactBitStringsOneString: a row's codes are cut from one
// string of exactly their total length, so a row costs two allocations
// (the string and the headers) however long it is, and it spells every
// code as before: the golden rows up to 20, and at 2 000 each code is i
// in k bits less its trailing zeros.
func TestAssignCompactBitStringsOneString(t *testing.T) {
	for n, want := range compactRows {
		if got := AssignCompactBitStrings(n + 1); fmt.Sprint(got) != "["+want+"]" {
			t.Errorf("AssignCompactBitStrings(%d) = %v, want [%s]", n+1, got, want)
		}
	}
	const n = 2000
	codes := AssignCompactBitStrings(n)
	k := bits.Len(n)
	for i, c := range codes {
		if want := strings.TrimRight(fmt.Sprintf("%0*b", k, i+1), "0"); string(c) != want {
			t.Fatalf("code %d of %d = %q, want %q", i+1, n, c, want)
		}
	}
	for _, m := range []int{20, n} {
		if got := testing.AllocsPerRun(50, func() { AssignCompactBitStrings(m) }); got != 2 {
			t.Errorf("AssignCompactBitStrings(%d) allocates %v times, want 2", m, got)
		}
	}
}

func TestAssignCompactBitStringsOrderedProperty(t *testing.T) {
	f := func(n uint8) bool {
		codes := AssignCompactBitStrings(int(n))
		for i := 1; i < len(codes); i++ {
			if CompareBitStrings(codes[i-1], codes[i]) >= 0 {
				return false
			}
		}
		for _, c := range codes {
			if !c.EndsInOne() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAssignMiddleBitStrings(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 10, 100} {
		var depth int
		codes, err := AssignMiddleBitStrings(n, &depth)
		if err != nil {
			t.Fatal(err)
		}
		if len(codes) != n {
			t.Fatalf("n=%d: got %d codes", n, len(codes))
		}
		for i := 1; i < len(codes); i++ {
			if CompareBitStrings(codes[i-1], codes[i]) >= 0 {
				t.Fatalf("n=%d: codes[%d]=%q >= codes[%d]=%q", n, i-1, codes[i-1], i, codes[i])
			}
		}
		for _, c := range codes {
			if !c.EndsInOne() {
				t.Fatalf("n=%d: %q does not end in 1", n, c)
			}
		}
		if n >= 3 && depth == 0 {
			t.Fatalf("n=%d: recursion depth not recorded", n)
		}
	}
	// ImprovedBinary endpoints per the paper: leftmost 01, rightmost 011.
	codes, _ := AssignMiddleBitStrings(3, nil)
	if codes[0] != "01" || codes[2] != "011" || codes[1] != "0101" {
		t.Fatalf("n=3 codes: %v", codes)
	}
}

func TestBitsCost(t *testing.T) {
	if MustBitString("0101").Bits() != 4 {
		t.Fatal("bit cost")
	}
	if TotalBits([]Code{MustBitString("01"), MustBitString("011")}) != 5 {
		t.Fatal("total bits")
	}
}

func TestCheckAscending(t *testing.T) {
	cmp := func(a, b Code) int { return CompareBitStrings(a.(BitString), b.(BitString)) }
	good := []Code{MustBitString("01"), MustBitString("011"), MustBitString("1")}
	if i := CheckAscending(good, cmp); i != -1 {
		t.Fatalf("good sequence flagged at %d", i)
	}
	bad := []Code{MustBitString("01"), MustBitString("01")}
	if i := CheckAscending(bad, cmp); i != 1 {
		t.Fatalf("bad sequence not flagged: %d", i)
	}
}

// MustBitString converts s, panicking on invalid input.
func MustBitString(s string) BitString {
	if !ValidBitString(s) {
		panic(fmt.Sprintf("labels: invalid bit string %q", s))
	}
	return BitString(s)
}

// ValidBitString reports whether s contains only '0' and '1'.
func ValidBitString(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' && s[i] != '1' {
			return false
		}
	}
	return true
}
