package figures

import (
	"strings"
	"testing"
)

func TestFigure1(t *testing.T) {
	out, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// The pre/post pairs of Figure 1(b).
	for _, needle := range []string{"0,9 (book)", "1,1 (title)", "2,0 (genre)", "9,6 (year)", "<title genre=\"Fantasy\">Wayfarer</title>"} {
		if !strings.Contains(out, needle) {
			t.Errorf("figure 1 missing %q:\n%s", needle, out)
		}
	}
}

func TestFigure2(t *testing.T) {
	out, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"Label", "4,8", "publisher", "Destiny Image"} {
		if !strings.Contains(out, needle) {
			t.Errorf("figure 2 missing %q", needle)
		}
	}
}

func TestFigure3(t *testing.T) {
	out, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"1 (r)", "1.1 (a)", "1.3.3 (c3)", "1.2.1 (b1)"} {
		if !strings.Contains(out, needle) {
			t.Errorf("figure 3 missing %q:\n%s", needle, out)
		}
	}
}

func TestFigure4GreyNodes(t *testing.T) {
	out, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	// The legible grey labels of the published Figure 4.
	for _, needle := range []string{"1.1.-1 (new) *", "1.3.3 (new) *", "1.5.2.1 (new) *", "1.5 (c)"} {
		if !strings.Contains(out, needle) {
			t.Errorf("figure 4 missing %q:\n%s", needle, out)
		}
	}
}

func TestFigure5GreyNodes(t *testing.T) {
	out, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"0a (r)", "2ab.ab (new) *", "2ac.c (new) *", "2ad.bb (new) *"} {
		if !strings.Contains(out, needle) {
			t.Errorf("figure 5 missing %q:\n%s", needle, out)
		}
	}
}

func TestFigure6GreyNodes(t *testing.T) {
	out, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	// Root is the empty string; the top-level codes are 01, 0101, 011
	// and the three insertion rules produce 001-style, append-1 and
	// middle codes.
	for _, needle := range []string{"(empty) (r)", "01 (a)", "011 (c)", "01.001 (new) *"} {
		if !strings.Contains(out, needle) {
			t.Errorf("figure 6 missing %q:\n%s", needle, out)
		}
	}
}

func TestFigureDispatch(t *testing.T) {
	for n := 1; n <= 6; n++ {
		if _, err := Figure(n); err != nil {
			t.Errorf("figure %d: %v", n, err)
		}
	}
	if _, err := Figure(7); err == nil {
		t.Error("figure 7 should point at cmd/matrix")
	}
	if _, err := Figure(0); err == nil {
		t.Error("figure 0 should fail")
	}
}
