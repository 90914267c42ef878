package dln

import (
	"errors"
	"math/rand"
	"testing"

	"xmldyn/internal/labels"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

func TestBulkAndRender(t *testing.T) {
	a := MustAlgebra(16)
	cs, err := a.Assign(3)
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].String() != "1" || cs[2].String() != "3" {
		t.Fatalf("bulk codes: %v %v", cs[0], cs[2])
	}
	m, err := a.Between(cs[1], cs[2]) // between 2 and 3: sublevel
	if err != nil {
		t.Fatal(err)
	}
	if m.(Code).String() != "2/32767" {
		t.Fatalf("sublevel code: %s", m)
	}
	if a.Compare(cs[1], m) >= 0 || a.Compare(m, cs[2]) >= 0 {
		t.Fatal("sublevel not strictly between")
	}
}

func TestSublevelChainsAndOrder(t *testing.T) {
	a := MustAlgebra(8)
	cs, err := a.Assign(4)
	if err != nil {
		t.Fatal(err)
	}
	codes := cs
	rng := rand.New(rand.NewSource(21))
	relabels := 0
	for i := 0; i < 1500; i++ {
		k := rng.Intn(len(codes) + 1)
		var l, r labels.Code
		if k > 0 {
			l = codes[k-1]
		}
		if k < len(codes) {
			r = codes[k]
		}
		m, err := a.Between(l, r)
		if err != nil {
			if errors.Is(err, labels.ErrNeedRelabel) || errors.Is(err, labels.ErrOverflow) {
				relabels++
				continue
			}
			t.Fatalf("step %d: %v", i, err)
		}
		if l != nil && a.Compare(l, m) >= 0 {
			t.Fatalf("step %d: %s !> %s", i, m, l)
		}
		if r != nil && a.Compare(m, r) >= 0 {
			t.Fatalf("step %d: %s !< %s", i, m, r)
		}
		codes = append(codes, nil)
		copy(codes[k+1:], codes[k:])
		codes[k] = m
	}
	if i := labels.CheckAscending(codes, a.Compare); i != -1 {
		t.Fatalf("sequence unsorted at %d", i)
	}
	t.Logf("8-bit DLN: %d of 1500 insertions required relabelling", relabels)
}

// TestFixedWidthOverflow: appending past the component maximum is the
// fixed-length overflow of §4.
func TestFixedWidthOverflow(t *testing.T) {
	a := MustAlgebra(4) // values 1..15
	if _, err := a.Assign(20); !errors.Is(err, labels.ErrOverflow) {
		t.Fatalf("bulk past width: %v", err)
	}
	cs, err := a.Assign(15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Between(cs[14], nil); !errors.Is(err, labels.ErrOverflow) {
		t.Fatalf("append past width: %v", err)
	}
}

// TestBeforeFirstNeedsRelabel: DLN has no position before 1, so the
// scheme is not persistent.
func TestBeforeFirstNeedsRelabel(t *testing.T) {
	a := MustAlgebra(16)
	cs, err := a.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Between(nil, cs[0]); !errors.Is(err, labels.ErrNeedRelabel) {
		t.Fatalf("before-first of 1: %v", err)
	}
}

func TestDLNSession(t *testing.T) {
	doc := xmltree.Generate(xmltree.GenOptions{Seed: 4, MaxDepth: 4, MaxChildren: 4, AttrProb: 0.2})
	s, err := update.NewSession(doc, New())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 600; i++ {
		nodes := doc.LabelledNodes()
		ref := nodes[rng.Intn(len(nodes))]
		if ref.Kind() != xmltree.KindElement {
			continue
		}
		switch {
		case ref != doc.Root() && rng.Intn(3) == 0:
			_, err = s.InsertBefore(ref, "d")
		case ref != doc.Root() && rng.Intn(3) == 1:
			_, err = s.InsertAfter(ref, "d")
		default:
			_, err = s.AppendChild(ref, "d")
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// DLN must have needed at least one relabel under before-first
	// pressure (it is graded N on persistence).
	if st := s.Labeling().Stats(); st.RelabelEvents == 0 {
		t.Log("note: no relabels in this storm; before-first pressure insufficient")
	}
}

func TestWidthValidation(t *testing.T) {
	if _, err := NewAlgebra(1); err == nil {
		t.Error("width 1 accepted")
	}
	if _, err := NewAlgebra(63); err == nil {
		t.Error("width 63 accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAlgebra should panic on bad width")
		}
	}()
	MustAlgebra(0)
}
