package core

import (
	"sync"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/workload"
)

// TestEvaluateDeterministic: the probes are fully seeded, so two
// evaluations with the same config must grade identically — the
// property that makes docs/EXPERIMENTS.md reproducible.
func TestEvaluateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("probe suite in -short mode")
	}
	cfg := fastConfig()
	for _, name := range []string{"qed", "deweyid", "dln", "vector"} {
		s, _ := SchemeByName(name)
		a1, _, err := Evaluate(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := Evaluate(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a1.Signature() != a2.Signature() {
			t.Errorf("%s: %s != %s", name, a1.Signature(), a2.Signature())
		}
	}
}

// TestConcurrentLabelReads: after Build, concurrent readers (Label,
// Compare, capability queries) are safe — the read-mostly usage an XML
// repository's query side needs. Run under -race in CI.
func TestConcurrentLabelReads(t *testing.T) {
	doc := workload.BaseDocument(42, 300)
	for _, name := range []string{"qed", "deweyid", "xpath-accelerator", "dde"} {
		s, _ := SchemeByName(name)
		// One labelling a document: each scheme reads its own clone.
		target := doc.Clone()
		lab := s.Factory()
		if err := lab.Build(target); err != nil {
			t.Fatal(err)
		}
		nodes := target.LabelledNodes()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					a := lab.Label(nodes[(g*31+i)%len(nodes)])
					b := lab.Label(nodes[(g*17+i*3)%len(nodes)])
					if a == nil || b == nil {
						t.Errorf("nil label during concurrent read")
						return
					}
					_ = lab.Compare(a, b)
					if ad, ok := lab.(labeling.AncestorByLabel); ok {
						_ = ad.IsAncestor(a, b)
					}
					_ = a.Bits()
					_ = a.String()
				}
			}(g)
		}
		wg.Wait()
	}
}
