package main

import (
	"os"
	"sync"
	"time"

	"xmldyn/internal/core"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// probeRecords bounds the appends of one log probe: enough for a
// steady mean, few enough that the synchronous policies stay under a
// second.
const probeRecords = 600

// probeWAL replays the recorded commit payloads into fresh logs under
// each sync policy: one client per policy, then all clients under
// per-commit and grouped sync (their per-record times give the group
// factor), then one Replay of the async log.
func probeWAL(payloads [][]byte, clients int, base string, r *result) error {
	if len(payloads) == 0 {
		return nil
	}
	if len(payloads) > probeRecords {
		payloads = payloads[:probeRecords]
	}
	// run appends every payload from each of n goroutines and returns
	// the mean Append latency and the wall time per record.
	run := func(policy wal.SyncPolicy, n int) (mean, perRecord time.Duration, dir string, err error) {
		if dir, err = os.MkdirTemp(base, "walprobe-"); err != nil {
			return 0, 0, "", err
		}
		log, err := wal.Create(dir, 1, wal.Options{Policy: policy})
		if err != nil {
			return 0, 0, "", err
		}
		lat := make([]samples, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, p := range payloads {
					t0 := time.Now()
					//xmldynvet:ignore walappend a probe log of its own, below the repository protocol; the log serialises appends itself
					if err := log.Append(p); err != nil {
						errs[g] = err
						return
					}
					lat[g] = append(lat[g], time.Since(t0))
				}
			}(g)
		}
		wg.Wait()
		wall := time.Since(start)
		if err := log.Close(); err != nil {
			return 0, 0, "", err
		}
		var all samples
		for g := range lat {
			if errs[g] != nil {
				return 0, 0, "", errs[g]
			}
			all = append(all, lat[g]...)
		}
		return all.mean(), wall / time.Duration(len(all)), dir, nil
	}
	set := func(name string, v float64) { r.set(perLayer, name, v, len(payloads)) }
	var asyncDir string
	for _, p := range []struct {
		name   string
		policy wal.SyncPolicy
	}{{"percommit", wal.SyncPerCommit}, {"grouped", wal.SyncGrouped}, {"async", wal.SyncAsync}} {
		mean, _, dir, err := run(p.policy, 1)
		if err != nil {
			return err
		}
		set("wal.append_us."+p.name, us(mean))
		asyncDir = dir
	}
	_, perCommit, _, err := run(wal.SyncPerCommit, clients)
	if err != nil {
		return err
	}
	groupedMean, grouped, _, err := run(wal.SyncGrouped, clients)
	if err != nil {
		return err
	}
	set("wal.append_grouped_us.nclients", us(groupedMean))
	set("wal.group_factor", ratio(float64(perCommit), float64(grouped)))

	size, err := dirBytes(asyncDir)
	if err != nil {
		return err
	}
	var payloadBytes int
	for _, p := range payloads {
		payloadBytes += len(p)
	}
	set("wal.frame_overhead_bytes", ratio(float64(int(size)-payloadBytes), float64(len(payloads))))
	t0 := time.Now()
	info, err := wal.Replay(asyncDir, 1, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	set("wal.replay_us_per_record", ratio(us(time.Since(t0)), float64(info.Records)))
	return nil
}

// probeDoc times the per-node costs that need no repository, on one
// document (the workload's largest): parsing its XML, a //item query
// over its frozen version, and label comparison under its scheme.
func probeDoc(doc *xmltree.Document, scheme string, r *result) {
	const reps = 5
	knodes := float64(doc.LabelledCount()) / 1000
	xml := doc.XML()
	var parse samples
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := xmltree.ParseString(xml); err != nil {
			r.fail("parse probe: " + err.Error())
			return
		}
		parse = append(parse, time.Since(t0))
	}
	r.set(perLayer, "xmltree.parse_us_per_knode", ratio(us(parse.quantile(0.5)), knodes), reps)

	// A private copy: publishing a version writes bookkeeping fields of
	// the live tree.
	copyDoc, err := xmltree.NewDocumentWithRoot(doc.Root().Clone())
	if err != nil {
		r.fail("query probe: " + err.Error())
		return
	}
	view := xmltree.OpenVersion(copyDoc.PublishVersion(1))
	var query samples
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := xpath.New(view, nil, xpath.ModeStructural).Query("//item"); err != nil {
			r.fail("query probe: " + err.Error())
			return
		}
		query = append(query, time.Since(t0))
	}
	r.set(perLayer, "xpath.query_us_per_knode", ratio(us(query.quantile(0.5)), knodes), reps)

	s, ok := core.SchemeByName(scheme)
	if !ok {
		r.fail("compare probe: unknown scheme " + scheme)
		return
	}
	sess, err := update.NewSession(copyDoc, s.Factory())
	if err != nil {
		r.fail("compare probe: " + err.Error())
		return
	}
	lab := sess.Labeling()
	nodes := copyDoc.LabelledNodes()
	var compare samples
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		for j := 1; j < len(nodes); j++ {
			if lab.Compare(lab.Label(nodes[j-1]), lab.Label(nodes[j])) >= 0 {
				r.fail("compare probe: labels out of document order")
				return
			}
		}
		compare = append(compare, time.Since(t0))
	}
	r.set(perLayer, "schemes.compare_ns", ratio(float64(compare.quantile(0.5).Nanoseconds()), float64(len(nodes)-1)), len(nodes)-1)
}
