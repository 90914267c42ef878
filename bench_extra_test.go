package xmldyn

// Supplementary benchmarks: every scheme's bulk build and steady-state
// insertion throughput, the snapshot store and its doc-tree codec, the
// textual update language and label-only vs structural axis evaluation.

import (
	"fmt"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/update"
	"xmldyn/internal/uql"
	"xmldyn/internal/workload"
	"xmldyn/internal/xpath"
)

// BenchmarkBuild measures initial bulk labelling for every registered
// scheme on the same 1000-node document. A document has one labelling,
// so each scheme labels its own clone and builds it again each
// iteration.
func BenchmarkBuild(b *testing.B) {
	doc := workload.BaseDocument(11, 1000)
	for _, s := range core.Registry() {
		if s.Name == "prime" {
			continue // CRT bulk build is benchmarked separately below
		}
		s := s
		b.Run(s.Name, func(b *testing.B) {
			doc, lab := doc.Clone(), s.Factory()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := lab.Build(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("prime-120", func(b *testing.B) {
		small := workload.BaseDocument(11, 120)
		lab := core.MustScheme("prime").Factory()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := lab.Build(small); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInsert measures steady-state random insertion for the
// headline schemes.
func BenchmarkInsert(b *testing.B) {
	for _, name := range []string{"qed", "cdqs", "ordpath", "vector-prefix", "deweyid", "xpath-accelerator"} {
		name := name
		b.Run(name, func(b *testing.B) {
			doc := workload.BaseDocument(12, 500)
			s, err := update.NewSession(doc, core.MustScheme(name).Factory())
			if err != nil {
				b.Fatal(err)
			}
			parent := doc.Root()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.AppendChild(parent, "x"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStore measures a session's snapshot: Save encodes the tree,
// Restore decodes it and relabels it under its scheme.
func BenchmarkStore(b *testing.B) {
	s, err := Open(workload.BaseDocument(13, 1000), "cdqs")
	if err != nil {
		b.Fatal(err)
	}
	data, err := Save(s)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Save(s); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "snapshot-bytes")
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Restore(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// codecDocument is read_heavy's first document at seed 1: 20 000 nodes,
// every name distinct, so every name of its image is a literal that
// enters the image's name table and evicts the oldest.
func codecDocument() *Document {
	_, docs := workload.BuildCorpus(workload.FewHugeDocs(), 1)
	return docs[0]
}

// BenchmarkEncodeDocTree measures the doc-tree image a checkpoint, an
// Open record and a Save write.
func BenchmarkEncodeDocTree(b *testing.B) {
	doc := codecDocument()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update.EncodeDocTree(doc)
	}
	b.ReportMetric(float64(len(update.EncodeDocTree(doc))), "image-bytes")
}

// BenchmarkDecodeDocTree measures loading that image back, as recovery
// and Restore do.
func BenchmarkDecodeDocTree(b *testing.B) {
	img := update.EncodeDocTree(codecDocument())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := update.DecodeDocTree(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUQL measures the textual update language end to end.
func BenchmarkUQL(b *testing.B) {
	script := `insert node <entry><title>t</title></entry> into /catalog;
		replace value of node /catalog/entry[1]/title with "x";
		delete node /catalog/entry[1]`
	ops, err := uql.Parse(script)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := uql.Parse(script); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("run", func(b *testing.B) {
		doc, _ := ParseString("<catalog/>")
		s, err := Open(doc, "cdqs")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := uql.Run(s, ops); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAxisEvaluation contrasts label-only and structural axis
// evaluation — the query-side payoff the paper attributes to richer
// labels.
func BenchmarkAxisEvaluation(b *testing.B) {
	doc := workload.BaseDocument(14, 1000)
	lab := core.MustScheme("qed").Factory()
	if err := lab.Build(doc); err != nil {
		b.Fatal(err)
	}
	ctx := doc.Root().FirstChild()
	for _, mode := range []struct {
		name string
		m    xpath.Mode
	}{{"label-only", xpath.ModeLabelOnly}, {"structural", xpath.ModeStructural}} {
		e := xpath.New(doc, lab, mode.m)
		for _, ax := range []xpath.Axis{xpath.AxisDescendant, xpath.AxisFollowing} {
			b.Run(fmt.Sprintf("%s/%s", mode.name, ax), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := e.Select(ctx, ax, ""); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
