package xmldyn

// Scale soak tests: the "very large documents" scenario of §5.2 at a
// size that still runs in seconds. Skipped under -short.

import (
	"fmt"
	"sync"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/repo"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

func TestSoakLargeDocumentBulk(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	doc := workload.BaseDocument(77, 100000)
	n := doc.LabelledCount()
	if n < 80000 {
		t.Fatalf("generator undershot: %d nodes", n)
	}
	for _, name := range []string{"qed", "cdqs", "deweyid", "xpath-accelerator", "vector"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// One labelling a document: each scheme labels a clone.
			doc := doc.Clone()
			lab := core.MustScheme(name).Factory()
			if err := lab.Build(doc); err != nil {
				t.Fatal(err)
			}
			// Spot-check order on a sample rather than all ~100k
			// adjacent pairs per scheme.
			nodes := doc.LabelledNodes()
			step := len(nodes) / 500
			for i := step; i < len(nodes); i += step {
				a, b := lab.Label(nodes[i-step]), lab.Label(nodes[i])
				if lab.Compare(a, b) >= 0 {
					t.Fatalf("order violated near %d", i)
				}
			}
		})
	}
}

func TestSoakStormTenThousandOps(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	doc := workload.BaseDocument(78, 5000)
	s, err := update.NewSession(doc, core.MustScheme("cdqs").Factory())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []workload.Spec{
		{Kind: workload.Random, Ops: 4000, Seed: 1},
		{Kind: workload.Skewed, Ops: 2000, Seed: 2},
		{Kind: workload.Churn, Ops: 4000, Seed: 3, DeleteRatio: 0.45},
	} {
		if _, err := workload.Apply(s, spec); err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
	}
	st := s.Labeling().Stats()
	if st.Relabeled != 0 || st.OverflowEvents != 0 {
		t.Fatalf("CDQS under 10k-op soak: %+v", *st)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := s.Document().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSoakSnapshotChurn hammers the MVCC layer: writers commit
// continuously while readers open, read and close snapshots by the
// thousand. At the end every version must be reclaimed — the
// no-leak guarantee of docs/CONCURRENCY.md §4.
func TestSoakSnapshotChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	const (
		docs           = 4
		writers        = 2
		readers        = 4
		readsPerReader = 250
	)
	r := repo.New()
	names := make([]string, docs)
	for i := range names {
		names[i] = fmt.Sprintf("doc%d", i)
		doc, err := xmltree.ParseString("<r><seed/></r>")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Open(names[i], doc, "qed"); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := names[w%docs]
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := r.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
					root := doc.Root()
					b.AppendChild(root, "item")
					if kids := root.Children(); len(kids) > 48 {
						b.Delete(kids[0])
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; i < readsPerReader; i++ {
				snap, err := r.Snapshot(names...)
				if err != nil {
					t.Error(err)
					return
				}
				for _, name := range names {
					if _, err := snap.Query(name, "//item"); err != nil {
						t.Error(err)
						snap.Close()
						return
					}
				}
				snap.Close()
			}
		}()
	}
	rg.Wait()
	close(stop)
	wg.Wait()
	st := r.VersionStats()
	if st.OpenSnapshots != 0 || st.PinnedVersions != 0 {
		t.Fatalf("snapshot soak leaked pins: %+v", st)
	}
	// Only the per-document cached current versions may remain, and
	// one more write per document reclaims even those.
	if st.LiveVersions > docs {
		t.Fatalf("snapshot soak leaked versions: %+v", st)
	}
	for _, name := range names {
		if _, err := r.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), "final")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.VersionStats(); st.LiveVersions != 0 {
		t.Fatalf("superseded versions survived the final writes: %+v", st)
	}
}

// TestSoakPhasedDurableWorkload drives the workload layer's phased
// stream (read-mostly → write-storm → recovery drill, Zipf-skewed
// document popularity) against a DurableRepository with 4 concurrent
// workers per phase, pinning a snapshot at each phase boundary and
// holding it open across the whole next phase — the combination the
// read_heavy and ckpt_restart workloads of ./bench time and this test
// races. At the end the MVCC gauges must settle exactly as
// docs/CONCURRENCY.md §4 promises: no open snapshots, no pinned
// versions, and one round of final writes reclaiming every superseded
// version.
func TestSoakPhasedDurableWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	const (
		docs     = 8
		workers  = 4
		phaseOps = 600
		skew     = 1.2
	)
	d, err := repo.OpenDurable(t.TempDir(), repo.DurableOptions{
		Sync: wal.SyncAsync, AutoCheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	names := make([]string, docs)
	for i := range names {
		names[i] = fmt.Sprintf("doc%d", i)
		doc, err := xmltree.ParseString("<r><seed/></r>")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Open(names[i], doc, "qed"); err != nil {
			t.Fatal(err)
		}
	}
	events, err := workload.Stream(404, docs, skew,
		workload.ReadMostly(phaseOps),
		// Ingest: batched writes with cross-document transactions mixed
		// in, and just enough reads to keep the versions honest.
		workload.Phase{Name: "write-storm", Ops: phaseOps,
			Mix: workload.Mix{Query: 0.08, SnapshotPin: 0.07, Batch: 0.70, MultiBatch: 0.15}},
		// Recovery drill: checkpoints — their snapshot batches written
		// by several writers — beside writes, queries and snapshots.
		workload.Phase{Name: "recovery", Ops: phaseOps / 2,
			Mix: workload.Mix{Query: 0.30, SnapshotPin: 0.10, Batch: 0.50, Checkpoint: 0.10}})
	if err != nil {
		t.Fatal(err)
	}
	byPhase := make(map[string][]workload.Event)
	var order []string
	for _, ev := range events {
		if len(byPhase[ev.Phase]) == 0 {
			order = append(order, ev.Phase)
		}
		byPhase[ev.Phase] = append(byPhase[ev.Phase], ev)
	}
	if len(order) != 3 {
		t.Fatalf("stream phases: %v", order)
	}

	apply := func(ev workload.Event) error {
		name := names[ev.Doc]
		switch ev.Kind {
		case workload.OpQuery:
			return d.QueryFunc(name, "//item", func([]*xmltree.Node) error { return nil })
		case workload.OpSnapshotPin:
			snap, err := d.Snapshot(name)
			if err != nil {
				return err
			}
			defer snap.Close()
			_, err = snap.Query(name, "//item")
			return err
		case workload.OpBatch:
			_, err := d.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
				root := doc.Root()
				if kids := root.Children(); len(kids) > 48 {
					b.Delete(kids[len(kids)-1])
				} else {
					b.AppendChild(root, "item")
				}
				return nil
			})
			return err
		case workload.OpMultiBatch:
			_, err := d.MultiBatch([]string{name, names[ev.Doc2]}, func(m map[string]*repo.MultiDoc) error {
				for _, md := range m {
					md.Batch().AppendChild(md.Document().Root(), "multi")
				}
				return nil
			})
			return err
		case workload.OpCheckpoint:
			return d.Checkpoint()
		}
		return fmt.Errorf("unhandled op %v", ev.Kind)
	}

	// heldCounts remembers what the boundary snapshot saw at pin time;
	// the snapshot must still answer exactly that after the next phase
	// has mutated everything underneath it.
	var held *repo.Snapshot
	var heldCounts map[string]int
	readCounts := func(snap *repo.Snapshot) (map[string]int, error) {
		counts := make(map[string]int, docs)
		for _, name := range names {
			nodes, err := snap.Query(name, "//item")
			if err != nil {
				return nil, err
			}
			counts[name] = len(nodes)
		}
		return counts, nil
	}
	for _, phase := range order {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(byPhase[phase]); i += workers {
					if err := apply(byPhase[phase][i]); err != nil {
						t.Errorf("%s[%d]: %v", phase, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if held != nil {
			after, err := readCounts(held)
			if err != nil {
				t.Fatalf("held snapshot after %s: %v", phase, err)
			}
			for name, want := range heldCounts {
				if after[name] != want {
					t.Fatalf("held snapshot drifted across %s: %s %d -> %d", phase, name, want, after[name])
				}
			}
			held.Close()
		}
		snap, err := d.Snapshot(names...)
		if err != nil {
			t.Fatal(err)
		}
		if heldCounts, err = readCounts(snap); err != nil {
			t.Fatal(err)
		}
		held = snap
	}
	held.Close()

	st := d.VersionStats()
	if st.OpenSnapshots != 0 || st.PinnedVersions != 0 {
		t.Fatalf("phased soak leaked pins: %+v", st)
	}
	if st.LiveVersions > docs {
		t.Fatalf("phased soak leaked versions: %+v", st)
	}
	for _, name := range names {
		if _, err := d.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
			b.AppendChild(doc.Root(), "final")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.VersionStats(); st.LiveVersions != 0 {
		t.Fatalf("superseded versions survived the final writes: %+v", st)
	}
}
