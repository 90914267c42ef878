// C14: snapshot-read tail latency under Zipf-skewed document
// popularity vs uniform. The MVCC pin protocol is O(1) — a refcount
// bump on an already-published persistent version — so concentrating
// both the write churn and the read traffic on a few hot documents
// should not stretch the pin tail: the hypothesis (docs/EXPERIMENTS.md
// H-C14) is that the p999 snapshot-pin latency under Zipf(1.2)
// popularity stays within 2× of the uniform-popularity p999 on the
// same op budget. A deep-copy pin (the pre-PR-6 design) would refute
// this instantly: hot documents churn more, so every pin of a hot
// document would re-copy a fresh tree while background writers stall
// the lock. The experiment drives the phased workload generator
// (read-mostly → write-storm) through a latency recorder and reports
// per-op-type percentiles, not aggregate throughput — the measurement
// substrate every future serving-layer PR inherits.

package experiments

import (
	"fmt"
	"sync"
	"time"

	"xmldyn/internal/harness"
	"xmldyn/internal/repo"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// c14Skew is the skewed distribution under test: the classic
// web-popularity exponent.
const c14Skew = 1.2

// C14TailLatency measures per-op-type latency percentiles (query,
// snapshot-pin, batch, multibatch) over a phased workload — ReadMostly
// then WriteStorm, phaseOps events each — against a corpus of docs
// mixed-shape documents, once with uniform document popularity and
// once with Zipf(1.2), while 2 background writers churn
// popularity-picked documents. The convergence rule re-runs the whole
// A/B measurement until the p999 pin ratio (zipf/uniform) stabilises;
// the table reports the last round's percentiles and the notes carry
// the hypothesis verdict.
func C14TailLatency(docs, phaseOps int, rule harness.ConvergeRule) (Table, error) {
	t := Table{
		ID:      "C14",
		Claim:   "O(1) snapshot pins keep tail latency popularity-insensitive (H-C14, docs/EXPERIMENTS.md)",
		Headers: []string{"dist", "op", "count", "p50_us", "p99_us", "p999_us"},
	}
	dists := []struct {
		name string
		skew float64
	}{
		{"uniform", 0},
		{"zipf", c14Skew},
	}
	var last map[string]*harness.Recorder
	res, err := rule.Run(func(round int) (float64, error) {
		recs := make(map[string]*harness.Recorder, len(dists))
		for _, dc := range dists {
			rec, err := runC14(dc.skew, docs, phaseOps, int64(101+round))
			if err != nil {
				return 0, fmt.Errorf("dist %s: %w", dc.name, err)
			}
			recs[dc.name] = rec
		}
		last = recs
		return pinTailRatio(recs)
	})
	if err != nil {
		return t, err
	}
	for _, dc := range dists {
		for _, st := range last[dc.name].Summary() {
			t.Rows = append(t.Rows, []string{
				dc.name, st.Op,
				fmt.Sprintf("%d", st.Count),
				us(st.P50), us(st.P99), us(st.P999),
			})
		}
	}
	verdict := "supported"
	if res.Mean > 2 {
		verdict = "refuted"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("hypothesis H-C14: zipf(%.1f) p999 snapshot-pin ≤ 2× uniform p999; measured ratio %.2f → %s", c14Skew, res.Mean, verdict),
		fmt.Sprintf("convergence: %d rounds, trailing spread %.2f (tolerance %.2f), converged=%v — rounds re-run the full A/B measurement",
			res.Rounds, res.Spread, rule.Tolerance, res.Converged),
		fmt.Sprintf("each round: %d-doc mixed corpus, phased stream ReadMostly(%d)+WriteStorm(%d), 2 background writers on popularity-picked docs", docs, phaseOps, phaseOps),
		"latencies from internal/harness log-linear histograms (quantile error ≤ 1/64); percentiles are per op type, not aggregate")
	return t, nil
}

// pinTailRatio extracts the convergence metric: p999(snapshot-pin)
// under zipf over p999 under uniform.
func pinTailRatio(recs map[string]*harness.Recorder) (float64, error) {
	z, zok := recs["zipf"].Stats(workload.OpSnapshotPin.String())
	u, uok := recs["uniform"].Stats(workload.OpSnapshotPin.String())
	if !zok || !uok || u.P999 == 0 {
		return 0, fmt.Errorf("C14: missing snapshot-pin samples (zipf ok=%v, uniform ok=%v)", zok, uok)
	}
	return float64(z.P999) / float64(u.P999), nil
}

// us renders a duration as microseconds with one decimal.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000)
}

// runC14 executes one distribution's phased stream against a fresh
// in-memory repository and returns the filled recorder. The driver is
// closed-loop (one op at a time, each timed); two background writers
// supply the churn that makes hot-document pins earn their keep.
func runC14(skew float64, docs, phaseOps int, seed int64) (*harness.Recorder, error) {
	r := repo.New(repo.Options{})
	names, trees := workload.BuildCorpus(workload.Profile{Docs: docs, Nodes: 96, Shape: workload.ShapeMixed}, seed)
	for i, name := range names {
		if _, err := r.Open(name, trees[i], "qed"); err != nil {
			return nil, err
		}
	}
	events, err := workload.Stream(seed, docs, skew, workload.ReadMostly(phaseOps), workload.WriteStorm(phaseOps))
	if err != nil {
		return nil, err
	}

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	const writers = 2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			picker, err := workload.NewZipf(seed+int64(w)+7, docs, skew)
			if err != nil {
				fail(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				d, ok := r.Get(names[picker.Next()])
				if !ok {
					fail(fmt.Errorf("writer lost its document"))
					return
				}
				if err := sawtoothCommit(d); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}

	rec := harness.NewRecorder()
	for _, ev := range events {
		name := names[ev.Doc]
		switch ev.Kind {
		case workload.OpQuery:
			err = rec.Time(ev.Kind.String(), func() error {
				return r.QueryFunc(name, "//item", func([]*xmltree.Node) error { return nil })
			})
		case workload.OpSnapshotPin:
			// Time the pin alone — the O(1) claim under test — then
			// read and release outside the timed region.
			var snap *repo.Snapshot
			err = rec.Time(ev.Kind.String(), func() error {
				var serr error
				snap, serr = r.Snapshot(name)
				return serr
			})
			if err == nil {
				if _, qerr := snap.Query(name, "//item"); qerr != nil {
					err = qerr
				}
				snap.Close()
			}
		case workload.OpBatch:
			d, ok := r.Get(name)
			if !ok {
				err = fmt.Errorf("driver lost %q", name)
				break
			}
			err = rec.Time(ev.Kind.String(), func() error { return sawtoothCommit(d) })
		case workload.OpMultiBatch:
			other := names[ev.Doc2]
			err = rec.Time(ev.Kind.String(), func() error {
				_, merr := r.MultiBatch([]string{name, other}, func(m map[string]*repo.MultiDoc) error {
					for _, md := range m {
						root := md.Document().Root()
						b := md.Batch()
						var lastItem *xmltree.Node
						items := 0
						for _, k := range root.Children() {
							if k.Name() == "item" {
								items++
								lastItem = k
							}
						}
						if items > 48 {
							b.Delete(lastItem)
						} else {
							b.AppendChild(root, "item")
						}
					}
					return nil
				})
				return merr
			})
		}
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("C14 %s on %s: %w", ev.Kind, name, err)
		}
	}
	close(stop)
	wg.Wait()
	return rec, firstErr
}

// sawtoothCommit appends an 8-op batch until the root holds ~48 extra
// children, then deletes the same tail back down — the label-stable
// writer shape (append-and-trim-front grows QED labels without bound and
// would contaminate the latency measurement).
func sawtoothCommit(d *repo.Doc) error {
	return d.Update(func(s *update.Session) error {
		root := s.Document().Root()
		kids := root.Children()
		bt := s.Batch()
		items := 0
		for _, k := range kids {
			if k.Name() == "item" {
				items++
			}
		}
		if items > 48 {
			removed := 0
			for i := len(kids) - 1; i >= 0 && removed < 8; i-- {
				if kids[i].Name() == "item" {
					bt.Delete(kids[i])
					removed++
				}
			}
		} else {
			for i := 0; i < 8; i++ {
				bt.AppendChild(root, "item")
			}
		}
		_, err := bt.Commit()
		return err
	})
}
