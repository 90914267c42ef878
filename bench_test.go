package xmldyn

// The benchmark harness regenerates the computational content of every
// figure in the paper (Figures 1-7; the paper has no numbered tables)
// plus the qualitative claims C1-C7 (docs/EXPERIMENTS.md, "Claims index
// and documented substitutions"). Run:
//
//	go test -bench=. -benchmem
//
// The engine's performance is not measured here: that is ./bench
// (BENCHMARK.json), one workload per question.
//
// Figure benches measure the work the figure depicts (labelling the
// figure's document, applying the figure's grey insertions, building
// the matrix); Claim benches measure the contrasts the §3-§5 prose
// asserts (relabelling costs, growth rates, bulk label sizes).

import (
	"fmt"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/encoding"
	"xmldyn/internal/figures"
	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/cdbs"
	"xmldyn/internal/schemes/cdqs"
	"xmldyn/internal/schemes/containment"
	"xmldyn/internal/schemes/dewey"
	"xmldyn/internal/schemes/improvedbinary"
	"xmldyn/internal/schemes/ordpath"
	"xmldyn/internal/schemes/qed"
	"xmldyn/internal/schemes/vector"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// --- Figure 1: pre/post labelling --------------------------------------------

func BenchmarkFig1PrePost(b *testing.B) {
	for _, size := range []int{10, 1000, 10000} {
		doc := workload.BaseDocument(1, size)
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			// One labelling a document: each run labels its own clone
			// and builds it again each iteration.
			doc, lab := doc.Clone(), containment.NewPrePost()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := lab.Build(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 2: encoding table + reconstruction --------------------------------

func BenchmarkFig2Encoding(b *testing.B) {
	doc := workload.BaseDocument(2, 1000)
	lab := containment.NewPrePost()
	if err := lab.Build(doc); err != nil {
		b.Fatal(err)
	}
	enc := encoding.Wrap(doc, lab)
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rows := enc.Table(); len(rows) == 0 {
				b.Fatal("no rows")
			}
		}
	})
	rows := enc.Table()
	b.Run("reconstruct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encoding.Reconstruct(rows); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figures 3-6: per-scheme labelling + the figures' grey insertions ---------

func benchFigureScheme(b *testing.B, factory labeling.Factory) {
	b.Run("bulk", func(b *testing.B) {
		doc, lab := workload.BaseDocument(3, 1000), factory() // one labelling a document
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := lab.Build(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grey-insertions", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			doc := xmltree.ExampleTree()
			s, err := update.NewSession(doc, factory())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.InsertFirstChild(doc.FindElement("a"), "g"); err != nil {
				b.Fatal(err)
			}
			if _, err := s.AppendChild(doc.FindElement("b"), "g"); err != nil {
				b.Fatal(err)
			}
			if _, err := s.InsertAfter(doc.FindElement("c1"), "g"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig3DeweyID(b *testing.B)        { benchFigureScheme(b, dewey.New) }
func BenchmarkFig4ORDPATH(b *testing.B)        { benchFigureScheme(b, ordpath.New) }
func BenchmarkFig5LSDX(b *testing.B)           { benchFigureScheme(b, core.MustScheme("lsdx").Factory) }
func BenchmarkFig6ImprovedBinary(b *testing.B) { benchFigureScheme(b, improvedbinary.New) }

// BenchmarkFigureRender measures the text rendering of Figures 1-6.
func BenchmarkFigureRender(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 6; n++ {
			if _, err := figures.Figure(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 7: the evaluation matrix ------------------------------------------

// BenchmarkFig7Matrix measures one full framework evaluation of a
// representative scheme (the matrix is 17 of these).
func BenchmarkFig7Matrix(b *testing.B) {
	cfg := core.DefaultProbeConfig()
	cfg.BaseNodes, cfg.StormOps, cfg.SkewedOps, cfg.ZigzagOps, cfg.XPathNodes = 80, 80, 280, 100, 24
	for _, name := range []string{"qed", "deweyid", "xpath-accelerator", "vector"} {
		s := core.MustScheme(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Evaluate(s, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Claim C1: gap exhaustion --------------------------------------------------

func BenchmarkClaimGapExhaustion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gapExhaustion(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Claim C2: DeweyID relabelling cost ----------------------------------------

func BenchmarkClaimDeweyRelabel(b *testing.B) {
	for _, fanout := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("front-insert-fanout=%d", fanout), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				doc := xmltree.GenerateWide(fanout)
				s, err := update.NewSession(doc, dewey.New())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := s.InsertFirstChild(doc.Root(), "x"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Claim C3: ORDPATH number-space waste --------------------------------------

func BenchmarkClaimOrdpathWaste(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ordpathWaste(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Claim C5: QED absorbs storms without relabelling --------------------------

func BenchmarkClaimQEDNoRelabel(b *testing.B) {
	for _, name := range []string{"qed", "cdqs", "deweyid"} {
		factory := core.MustScheme(name).Factory
		b.Run(name+"/random-insert", func(b *testing.B) {
			doc := workload.BaseDocument(5, 500)
			s, err := update.NewSession(doc, factory())
			if err != nil {
				b.Fatal(err)
			}
			elems := doc.Root().Children()
			ref := elems[len(elems)/2]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.InsertBefore(ref, "x"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Labeling().Stats().Relabeled)/float64(b.N), "relabels/op")
		})
	}
}

// --- Claim C6: skewed growth QED vs vector --------------------------------------

func BenchmarkClaimSkewedGrowth(b *testing.B) {
	algebras := []struct {
		name string
		alg  labels.Algebra
	}{
		{"qed", qed.NewAlgebra()},
		{"cdqs", cdqs.NewAlgebra()},
		{"vector", vector.NewAlgebra()},
	}
	for _, a := range algebras {
		b.Run(a.name, func(b *testing.B) {
			cs, err := a.alg.Assign(2)
			if err != nil {
				b.Fatal(err)
			}
			l, r := cs[0], cs[1]
			b.ReportAllocs()
			b.ResetTimer()
			bits := 0
			for i := 0; i < b.N; i++ {
				m, err := a.alg.Between(l, r)
				if err != nil {
					// Vector's UTF-8 ceiling: restart the hot spot.
					cs, _ := a.alg.Assign(2)
					l, r = cs[0], cs[1]
					continue
				}
				r = m
				bits = m.Bits()
			}
			b.ReportMetric(float64(bits), "final-label-bits")
		})
	}
}

// --- Claim C7: bulk label compactness -------------------------------------------

func BenchmarkClaimCDBSCompact(b *testing.B) {
	algebras := []struct {
		name string
		alg  func() labels.Algebra
	}{
		{"cdbs", func() labels.Algebra { return cdbs.NewAlgebra() }},
		{"improvedbinary", func() labels.Algebra { return improvedbinary.NewAlgebra() }},
		{"qed", func() labels.Algebra { return qed.NewAlgebra() }},
		{"cdqs", func() labels.Algebra { return cdqs.NewAlgebra() }},
	}
	for _, a := range algebras {
		b.Run(a.name+"/assign-10k", func(b *testing.B) {
			alg := a.alg()
			b.ReportAllocs()
			var total int
			for i := 0; i < b.N; i++ {
				cs, err := alg.Assign(10000)
				if err != nil {
					b.Fatal(err)
				}
				total = labels.TotalBits(cs)
			}
			b.ReportMetric(float64(total)/10000, "bits/label")
		})
	}
}

// --- cross-cutting: label comparison cost ---------------------------------------

// BenchmarkCompare measures the §3.1.2 "expensive comparative evaluation"
// contrast: fixed integers vs variable strings vs vectors.
func BenchmarkCompare(b *testing.B) {
	for _, name := range []string{"xpath-accelerator", "deweyid", "ordpath", "qed", "vector-prefix"} {
		factory := core.MustScheme(name).Factory
		b.Run(name, func(b *testing.B) {
			doc := workload.BaseDocument(6, 1000)
			lab := factory()
			if err := lab.Build(doc); err != nil {
				b.Fatal(err)
			}
			nodes := doc.LabelledNodes()
			ls := make([]labeling.Label, len(nodes))
			for i, n := range nodes {
				ls[i] = lab.Label(n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := ls[i%len(ls)]
				c := ls[(i*7+3)%len(ls)]
				_ = lab.Compare(a, c)
			}
		})
	}
}

// BenchmarkQuery measures the location-path evaluator.
func BenchmarkQuery(b *testing.B) {
	doc := SampleBook()
	s, err := Open(doc, "deweyid")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Query(s, "/book/publisher//name"); err != nil {
			b.Fatal(err)
		}
	}
}
