package xmldyn

// Ablation benchmarks for the design choices docs/EXPERIMENTS.md calls
// out under "Claims index and documented substitutions": gap sizing in
// containment schemes, the level field in interval labels, Com-D
// compression, and one-sided vs adversarial insertion patterns.
// Run with: go test -bench=Ablation -benchmem

import (
	"errors"
	"fmt"
	"testing"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/comd"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/lsdx"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/schemes/vector"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// BenchmarkAblationGapSize: bigger gaps postpone renumbering (cheaper
// steady-state inserts) at no label-size cost until the width runs out.
// relabels/op quantifies the §3.1.1 "only postpone" trade.
func BenchmarkAblationGapSize(b *testing.B) {
	for _, gap := range []int64{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) {
			doc := xmltree.GenerateWide(64)
			s, err := update.NewSession(doc, containment.NewGapInterval(gap))
			if err != nil {
				b.Fatal(err)
			}
			ref := doc.Root().Children()[32]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.InsertBefore(ref, "x"); err != nil {
					b.Fatal(err)
				}
			}
			st := s.Labeling().Stats()
			b.ReportMetric(float64(st.Relabeled)/float64(b.N), "relabels/op")
		})
	}
}

// BenchmarkAblationIntervalLevel: storing the level buys the
// parent-child axis (XPath F vs P) for 8 bits per label; this measures
// the build-time and size cost of that choice.
func BenchmarkAblationIntervalLevel(b *testing.B) {
	mk := func(withLevel bool) labeling.Interface {
		return containment.NewInterval(containment.IntervalConfig{
			Name: "ablation-interval",
			Algebra: labels.MustIntAlgebra(labels.IntAlgebraConfig{
				Name: "abl-int", Start: 16, Gap: 16, Width: 40, Floor: 1, Midpoint: true,
			}),
			WithLevel: withLevel,
		})
	}
	doc := xmltree.GenerateBalanced(5, 4)
	for _, withLevel := range []bool{false, true} {
		b.Run(fmt.Sprintf("withLevel=%v", withLevel), func(b *testing.B) {
			b.ReportAllocs()
			var bits float64
			for i := 0; i < b.N; i++ {
				lab := mk(withLevel)
				if err := lab.Build(doc); err != nil {
					b.Fatal(err)
				}
				bits = labeling.MeanBits(lab, doc)
			}
			b.ReportMetric(bits, "bits/label")
		})
	}
}

// BenchmarkAblationComD: run-length compression of LSDX labels trades
// CPU per insertion for storage under repetitive-letter growth.
func BenchmarkAblationComD(b *testing.B) {
	cases := []struct {
		name string
		alg  labels.Algebra
	}{
		{"lsdx-raw", lsdx.NewUnboundedAlgebra()},
		{"com-d-compressed", comd.NewAlgebra()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cs, err := c.alg.Assign(1)
			if err != nil {
				b.Fatal(err)
			}
			r := cs[0]
			b.ReportAllocs()
			b.ResetTimer()
			var bits int
			for i := 0; i < b.N; i++ {
				m, err := c.alg.Between(nil, r)
				if err != nil {
					b.Fatal(err)
				}
				r = m
				bits = m.Bits()
			}
			b.ReportMetric(float64(bits), "final-label-bits")
		})
	}
}

// BenchmarkAblationInsertionPattern: one-sided skew vs adversarial
// zigzag across the growth-critical schemes. The pattern, not the op
// count, decides who overflows (vector survives skew to 2^21 but dies
// on zigzag ~30; ORDPATH the other way around).
func BenchmarkAblationInsertionPattern(b *testing.B) {
	algebras := []struct {
		name string
		mk   func() labels.Algebra
	}{
		{"qed", func() labels.Algebra { return qed.NewAlgebra() }},
		{"ordpath", func() labels.Algebra { return ordpath.NewAlgebra() }},
		{"vector", func() labels.Algebra { return vector.NewAlgebra() }},
	}
	for _, a := range algebras {
		for _, pattern := range []string{"skew", "zigzag"} {
			b.Run(a.name+"/"+pattern, func(b *testing.B) {
				alg := a.mk()
				cs, err := alg.Assign(2)
				if err != nil {
					b.Fatal(err)
				}
				l, r := cs[0], cs[1]
				overflows := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := alg.Between(l, r)
					if err != nil {
						if errors.Is(err, labels.ErrOverflow) || errors.Is(err, labels.ErrNeedRelabel) {
							overflows++
							cs, _ := alg.Assign(2)
							l, r = cs[0], cs[1]
							continue
						}
						b.Fatal(err)
					}
					if pattern == "skew" || i%2 == 0 {
						r = m
					} else {
						l = m
					}
				}
				b.ReportMetric(float64(overflows), "overflow-restarts")
			})
		}
	}
}
