package workload

import (
	"reflect"
	"testing"

	"xmldyn/internal/xmltree"
)

// The ingest and checkpoint-heavy mixes the stream tests draw beside
// ReadMostly.
var (
	stormMix    = Mix{Query: 0.08, SnapshotPin: 0.07, Batch: 0.70, MultiBatch: 0.15}
	recoveryMix = Mix{Query: 0.30, SnapshotPin: 0.10, Batch: 0.50, Checkpoint: 0.10}
)

// TestStreamDeterminism: identical arguments ⇒ identical event
// streams, byte for byte; a different seed diverges. This is the
// second half of the ISSUE 8 determinism satellite (the first is the
// Zipf sampler itself).
func TestStreamDeterminism(t *testing.T) {
	phases := []Phase{
		ReadMostly(400),
		{Name: "write-storm", Ops: 400, Mix: stormMix},
		{Name: "recovery", Ops: 200, Mix: recoveryMix},
	}
	a, err := Stream(11, 16, 1.2, phases...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stream(11, 16, 1.2, phases...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c, err := Stream(12, 16, 1.2, phases...)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestStreamSizesItsOutputOnce: a stream of 32 768 events, one
// client's stream in the benchmark, allocates its events once, sized
// from the phases' ops, so it allocates as often as a stream of one
// event: six times, the events, the stream's generator source, and the
// Zipf picker, its generator, that generator's source and its table. It
// regrew its events about 30 times while it grew by append.
func TestStreamSizesItsOutputOnce(t *testing.T) {
	allocs := func(ops int) float64 {
		phases := []Phase{ReadMostly(ops / 2), {Name: "write-storm", Ops: ops - ops/2, Mix: stormMix}}
		var events []Event
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if events, err = Stream(1, 4, 1.1, phases...); err != nil {
				t.Fatal(err)
			}
		})
		if len(events) != ops || cap(events) != ops {
			t.Fatalf("%d events in a slice of %d, want %d in %d", len(events), cap(events), ops, ops)
		}
		return allocs
	}
	long, short := allocs(32768), allocs(1)
	if long != short || long > 6 {
		t.Errorf("a stream of 32768 events: %.0f allocs, of one event %.0f; want the same, at most 6", long, short)
	}
}

// TestStreamPhasesAndMix: events appear in phase order, respect each
// phase's op budget, and the drawn op mix tracks the configured
// weights (loose bounds — the draw is random, the seed fixed).
func TestStreamPhasesAndMix(t *testing.T) {
	const ops = 2000
	events, err := Stream(3, 8, 0, ReadMostly(ops), Phase{Name: "write-storm", Ops: ops, Mix: stormMix})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*ops {
		t.Fatalf("stream has %d events, want %d", len(events), 2*ops)
	}
	counts := map[string]map[OpKind]int{}
	for i, ev := range events {
		wantPhase := "read-mostly"
		if i >= ops {
			wantPhase = "write-storm"
		}
		if ev.Phase != wantPhase {
			t.Fatalf("event %d in phase %q, want %q", i, ev.Phase, wantPhase)
		}
		if ev.Doc < 0 || ev.Doc >= 8 || ev.Doc2 < 0 || ev.Doc2 >= 8 {
			t.Fatalf("event %d targets out-of-range doc: %+v", i, ev)
		}
		if ev.Kind == OpMultiBatch && ev.Doc2 == ev.Doc {
			t.Fatalf("event %d: multibatch targets the same doc twice: %+v", i, ev)
		}
		if counts[ev.Phase] == nil {
			counts[ev.Phase] = map[OpKind]int{}
		}
		counts[ev.Phase][ev.Kind]++
	}
	rm := counts["read-mostly"]
	if q := rm[OpQuery]; q < ops/2 {
		t.Errorf("read-mostly drew only %d queries of %d ops", q, ops)
	}
	if rm[OpMultiBatch] != 0 || rm[OpCheckpoint] != 0 {
		t.Errorf("read-mostly drew ops its mix excludes: %v", rm)
	}
	ws := counts["write-storm"]
	if bt := ws[OpBatch]; bt < ops/2 {
		t.Errorf("write-storm drew only %d batches of %d ops", bt, ops)
	}
	if ws[OpMultiBatch] == 0 {
		t.Error("write-storm drew no multibatches")
	}
}

// TestStreamSkewConcentrates: under heavy skew most events target the
// hottest ranks; under uniform they spread.
func TestStreamSkewConcentrates(t *testing.T) {
	const docs, ops = 32, 4000
	hot := func(skew float64) int {
		events, err := Stream(5, docs, skew, Phase{Name: "write-storm", Ops: ops, Mix: stormMix})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ev := range events {
			if ev.Doc < 4 {
				n++
			}
		}
		return n
	}
	uniform, skewed := hot(0), hot(2.0)
	if skewed <= 2*uniform {
		t.Errorf("skew 2.0 put %d/%d events on the top 4 docs, uniform %d — no concentration", skewed, ops, uniform)
	}
}

// TestStreamRejectsBadInput: degenerate corpora and mixes error out.
func TestStreamRejectsBadInput(t *testing.T) {
	if _, err := Stream(1, 0, 0, ReadMostly(10)); err == nil {
		t.Error("docs=0 accepted")
	}
	if _, err := Stream(1, 4, 0, Phase{Name: "empty", Ops: 10}); err == nil {
		t.Error("all-zero mix accepted")
	}
	if _, err := Stream(1, 4, 0, Phase{Name: "neg", Ops: 10, Mix: Mix{Query: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
}

// TestShapeDocuments: each silhouette delivers roughly the requested
// node budget in its characteristic geometry.
func TestShapeDocuments(t *testing.T) {
	depth := func(doc *xmltree.Document) int {
		max := 0
		var walk func(n *xmltree.Node, d int)
		walk = func(n *xmltree.Node, d int) {
			if d > max {
				max = d
			}
			for _, c := range n.Children() {
				walk(c, d+1)
			}
		}
		walk(doc.Root(), 0)
		return max
	}
	wide := ShapeDocument(ShapeWide, 1, 200)
	if got := len(wide.Root().Children()); got != 199 {
		t.Errorf("wide fan-out = %d, want 199", got)
	}
	if d := depth(wide); d != 1 {
		t.Errorf("wide depth = %d, want 1", d)
	}
	deep := ShapeDocument(ShapeDeep, 1, 200)
	if d := depth(deep); d != 199 {
		t.Errorf("deep depth = %d, want 199", d)
	}
	mixed := ShapeDocument(ShapeMixed, 1, 200)
	if n := mixed.LabelledCount(); n < 150 || n > 250 {
		t.Errorf("mixed node count = %d, want ~200", n)
	}
	if d := depth(mixed); d < 2 {
		t.Errorf("mixed depth = %d, want bushy", d)
	}
	for _, s := range []Shape{ShapeMixed, ShapeWide, ShapeDeep} {
		if s.String() == "" {
			t.Errorf("shape %d has no name", s)
		}
	}
}

// TestBuildCorpus: profiles materialise deterministically with
// rank-ordered names.
func TestBuildCorpus(t *testing.T) {
	p := Profile{Docs: 5, Nodes: 40, Shape: ShapeMixed}
	names, docs := BuildCorpus(p, 9)
	if len(names) != 5 || len(docs) != 5 {
		t.Fatalf("corpus sizes: %d names, %d docs", len(names), len(docs))
	}
	if names[0] != "doc0000" || names[4] != "doc0004" {
		t.Errorf("corpus names: %v", names)
	}
	_, again := BuildCorpus(p, 9)
	for i := range docs {
		if docs[i].LabelledCount() != again[i].LabelledCount() {
			t.Errorf("doc %d not deterministic: %d vs %d nodes", i, docs[i].LabelledCount(), again[i].LabelledCount())
		}
	}
	tiny, huge := ManyTinyDocs(), FewHugeDocs()
	if tiny.Docs <= huge.Docs || tiny.Nodes >= huge.Nodes {
		t.Errorf("profiles inverted: tiny=%+v huge=%+v", tiny, huge)
	}
}
