package containment

import (
	"strings"
	"testing"

	"xmldyn/internal/labels"
)

// dotted is a code type without ==, as DLN's and ORDPATH's are.
type dotted []string

func (d dotted) String() string { return strings.Join(d, ".") }
func (d dotted) Bits() int      { return 8 * len(d.String()) }

// TestSameSpellingSeesThroughPointers: a QED code is boxed as a
// *labels.QString, an integer code as a *labels.IntCode, so two codes
// with one spelling are two pointers.
// sameSpelling compares what they point to — comparing the pointers
// would count every label a renumbering kept as moved.
func TestSameSpellingSeesThroughPointers(t *testing.T) {
	var chunks labels.QCodes
	minted, err := chunks.Between(nil, nil) // "2", cut from a labelling's chunks
	if err != nil {
		t.Fatal(err)
	}
	row := []labels.QString{"2", "212"} // a bulk row boxes &row[i]
	q := func(s string) *labels.QString { v := labels.QString(s); return &v }
	i := func(v int64, width int) *labels.IntCode { return &labels.IntCode{V: v, Width: width} }
	for _, c := range []struct {
		name string
		a, b labels.Code
		same bool
	}{
		{"minted and bulk, one spelling", minted, &row[0], true},
		{"two pointers, one spelling", q("212"), &row[1], true},
		{"one pointer", minted, minted, true},
		{"two spellings", minted, &row[1], false},
		{"a pointer and a value, one spelling", q("2"), labels.QString("2"), true},
		{"two integer pointers, one spelling", i(3, 8), i(3, 8), true},
		{"integers of two widths", i(3, 8), i(3, 16), false},
		{"slices, rendered", dotted{"1", "3"}, dotted{"1", "3"}, true},
		{"slices, rendered apart", dotted{"1", "3"}, dotted{"1", "5"}, false},
	} {
		if got := sameSpelling(c.a, c.b); got != c.same {
			t.Errorf("%s: sameSpelling(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.same)
		}
	}
}
