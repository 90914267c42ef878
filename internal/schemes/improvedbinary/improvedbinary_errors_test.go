package improvedbinary

import (
	"errors"
	"testing"

	"xmldyn/internal/labels"
)

// TestForeignCodesRejected: *labels.BitString is the one boxed form of
// an ImprovedBinary code. A foreign code or a BitString value is refused
// with ErrBadCode, not a panic.
func TestForeignCodesRejected(t *testing.T) {
	a := NewAlgebra()
	one, err := a.Between(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]labels.Code{
		{labels.QString("2"), nil}, {nil, labels.IntCode{V: 3, Width: 8}},
		{labels.BitString("1"), nil}, {nil, labels.BitString("1")}, {one, labels.BitString("11")},
	} {
		if got, err := a.Between(pair[0], pair[1]); !errors.Is(err, labels.ErrBadCode) || got != nil {
			t.Errorf("Between(%#v, %#v) = %v, %v; want ErrBadCode", pair[0], pair[1], got, err)
		}
	}
}
