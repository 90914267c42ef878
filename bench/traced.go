package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"xmldyn"
	"xmldyn/internal/core"
	"xmldyn/internal/labeling"
	"xmldyn/internal/repo"
	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// acc accumulates a timed quantity with the amount of work it covered
// (records, nodes, bytes), for metrics normalised by work.
type acc struct {
	d time.Duration
	n int
}

func (a *acc) add(d time.Duration, n int) { a.d += d; a.n += n }

// per is the accumulated time per unit of work, in the caller's unit
// (pass us, ms or a conversion of its own).
func (a acc) per(unit func(time.Duration) float64, scale int) float64 {
	if a.n == 0 {
		return 0
	}
	return unit(a.d) * float64(scale) / float64(a.n)
}

// shadowDoc is the benchmark's own replica of one leader document: a
// session under the same scheme that receives the same ops, so the
// layers' public functions can be timed on it one by one.
type shadowDoc struct {
	name   string
	scheme string
	sess   *update.Session
	st     docState
	seq    uint64
	green  *xmltree.Node     // last published version root
	view   *xmltree.Document // opened view over green
	dirty  bool              // changed since green was published
	ckpt   bool              // changed since the last shadow checkpoint
	cold   bool              // written since the last snapshot pin
	file   string            // snapshot file of the last shadow checkpoint
	gen    uint64
}

// shadow is the layer-by-layer replay of the leader's commit,
// checkpoint and read paths on the benchmark's own state. A traced run
// issues every operation to the real facade first (a span of layer
// "repo") and then to the shadow, in the order DurableRepository uses
// the layers, each call its own span. The shadow must see every write
// the leader sees, in the same order, so the traced stages run from
// one client.
type shadow struct {
	tr         *tracer
	c          config
	dir        string
	docs       []*shadowDoc
	log        *wal.Log
	gen        uint64
	versioning bool // the leader has seen its first Snapshot: commits publish versions

	payloads     [][]byte // the first commits' WAL payloads, for the wal probes
	payloadBytes int
	encBytes     int
	encOps       int
	commits      int
	encTree      acc // EncodeDocTree, per node
	decTree      acc // DecodeDocTree, per node
	marshal      acc // MarshalDocSnap, per node
	unmarshal    acc // UnmarshalDocSnap, per node
	snapBytes    int // snapshot file bytes written by shadow checkpoints
	snapNodes    int
	ckpts        int
	dirtyDocs    int
	ckptBytes    int
	liveRootsMax int64
	retainedMax  int64
}

// maxPayloads bounds the recorded payloads; the wal probes replay them.
const maxPayloads = 2000

// newShadow copies every leader document (structure only: the copy is
// labelled afresh under the same scheme) and opens the shadow log
// under the workload's own sync policy.
func newShadow(w *world, tr *tracer) (*shadow, error) {
	dir, err := os.MkdirTemp(w.base, "shadow-")
	if err != nil {
		return nil, err
	}
	sh := &shadow{tr: tr, c: w.c, dir: dir, gen: 1}
	for i, name := range w.names {
		var root *xmltree.Node
		// View, not Snapshot: the first Snapshot switches the leader to
		// publishing a version on every commit, which the untraced main
		// stage of a write-only workload never pays.
		if err := w.leader.View(name, func(s *update.Session) error {
			root = s.Document().Root().Clone()
			return nil
		}); err != nil {
			return nil, err
		}
		doc, err := xmltree.NewDocumentWithRoot(root)
		if err != nil {
			return nil, err
		}
		scheme, _ := core.SchemeByName(w.schemes[i])
		sess, err := update.NewSession(doc, &tracedLabeling{Interface: scheme.Factory(), tr: tr, scheme: w.schemes[i]})
		if err != nil {
			return nil, err
		}
		sess.SetAutoVerify(false)
		sess.Labeling().Stats().Reset()
		sh.docs = append(sh.docs, &shadowDoc{name: name, scheme: w.schemes[i], sess: sess, st: w.state[i], ckpt: true})
	}
	opts := w.c.durableOptions()
	sh.log, err = wal.Create(dir, 1, wal.Options{Policy: opts.Sync, SegmentBytes: opts.SegmentBytes})
	return sh, err
}

func (sh *shadow) close() error { return sh.log.Close() }

// commit replays one write event through the layers in the order
// DurableRepository.Batch (MultiBatch) calls them: EncodeOps, Apply,
// order verification, version publication, log append. DecodeOps is
// timed beside them, against the same pre-apply tree recovery and a
// follower would decode against.
func (sh *shadow) commit(ev event) error {
	type part struct {
		sd  *shadowDoc
		ops []update.Op
	}
	tr := sh.tr
	var parts []part
	add := func(doc int, seed uint64, n int) {
		sd := sh.docs[doc]
		b := sd.sess.Batch()
		buildCommit(&sd.st, sd.sess.Document(), b, seed, n, sh.c.Wide)
		if b.Len() > 0 {
			parts = append(parts, part{sd, b.Ops()})
		}
	}
	if ev.Kind == workload.OpMultiBatch && ev.Doc2 != ev.Doc {
		add(ev.Doc, ev.Seed, sh.c.BatchOps/2)
		add(ev.Doc2, ev.Seed>>7, sh.c.BatchOps/2)
	} else {
		add(ev.Doc, ev.Seed, sh.c.BatchOps)
	}

	id := tr.begin("bench", "shadow")
	var recs []recordPart
	for _, p := range parts {
		var enc []byte
		if err := tr.in("update", "EncodeOps", func() (err error) {
			enc, err = update.EncodeOps(p.sd.sess.Document(), p.ops)
			return err
		}); err != nil {
			return err
		}
		recs = append(recs, recordPart{p.sd.name, enc})
		sh.encBytes += len(enc)
		sh.encOps += len(p.ops)
	}
	tr.end(id)
	id = tr.begin("bench", "probe")
	for i, p := range parts {
		if err := tr.in("update", "DecodeOps", func() error {
			_, err := update.DecodeOps(p.sd.sess.Document(), recs[i].ops)
			return err
		}); err != nil {
			return err
		}
	}
	tr.end(id)
	id = tr.begin("bench", "shadow")
	defer tr.end(id)
	for _, p := range parts {
		if err := tr.in("update", "Session.Apply", func() error {
			_, err := p.sd.sess.Apply(p.ops)
			return err
		}); err != nil {
			return err
		}
		if err := tr.in("update", "Session.Verify", p.sd.sess.Verify); err != nil {
			return err
		}
		p.sd.dirty, p.sd.ckpt, p.sd.cold = true, true, true
		if sh.versioning {
			sh.publish(p.sd)
		}
	}
	payload := commitPayload(recs)
	if len(sh.payloads) < maxPayloads {
		sh.payloads = append(sh.payloads, payload)
	}
	sh.payloadBytes += len(payload)
	sh.commits++
	//xmldynvet:ignore walappend the shadow's own log, appended from the traced run's single client
	return tr.in("wal", "Log.Append", func() error { return sh.log.Append(payload) })
}

// publish folds the document's changes into a new persistent version.
func (sh *shadow) publish(sd *shadowDoc) {
	id := sh.tr.begin("xmltree", "PublishVersion")
	sd.seq++
	sd.green = sd.sess.Document().PublishVersion(sd.seq)
	sh.tr.end(id)
	sd.dirty, sd.view = false, nil
}

// frozen returns the opened view of the document's current version,
// publishing and opening it first if needed, as a snapshot pin does.
func (sh *shadow) frozen(sd *shadowDoc) *xmltree.Document {
	sh.versioning = true
	if sd.green == nil || sd.dirty {
		sh.publish(sd)
	}
	if sd.view == nil {
		id := sh.tr.begin("xmltree", "OpenVersion")
		sd.view = xmltree.OpenVersion(sd.green)
		sh.tr.end(id)
	}
	return sd.view
}

// query is the shadow of QueryFunc: the xpath engine on the live tree.
func (sh *shadow) query(doc int) error {
	sd := sh.docs[doc]
	id := sh.tr.begin("bench", "shadow")
	defer sh.tr.end(id)
	return sh.tr.in("xpath", "Engine.Query", func() error {
		_, err := xpath.New(sd.sess.Document(), sd.sess.Labeling(), xpath.ModeStructural).Query("//item")
		return err
	})
}

// snapshotRead is the shadow of Snapshot+Query+Close: publish and open
// the version if it is stale, then the xpath engine on the frozen view.
func (sh *shadow) snapshotRead(doc int) error {
	sd := sh.docs[doc]
	id := sh.tr.begin("bench", "shadow")
	defer sh.tr.end(id)
	view := sh.frozen(sd)
	sd.cold = false
	return sh.tr.in("xpath", "Engine.Query", func() error {
		_, err := xpath.New(view, nil, xpath.ModeStructural).Query("//item")
		return err
	})
}

// checkpoint is the shadow of DurableRepository.Checkpoint: cut the
// log into a fresh segment, write a snapshot file for every document
// changed since the last checkpoint from its frozen version, switch
// the manifest, retire what the new manifest no longer needs.
func (sh *shadow) checkpoint() error {
	tr := sh.tr
	id := tr.begin("bench", "shadow")
	defer tr.end(id)
	if err := tr.in("wal", "Log.Sync", sh.log.Sync); err != nil {
		return err
	}
	first := sh.log.ActiveIndex() + 1
	opts := sh.c.durableOptions()
	var fresh *wal.Log
	if err := tr.in("wal", "Create", func() (err error) {
		fresh, err = wal.Create(sh.dir, first, wal.Options{Policy: opts.Sync, SegmentBytes: opts.SegmentBytes})
		return err
	}); err != nil {
		return err
	}
	_ = tr.in("wal", "Log.Close", sh.log.Close)
	sh.log = fresh
	sh.gen++
	man := store.Manifest{Gen: sh.gen, WALFirst: first}
	var stale []string
	for _, sd := range sh.docs {
		if sd.ckpt {
			view := sh.frozen(sd)
			nodes := view.LabelledCount()
			var tree, data []byte
			t0 := time.Now()
			_ = tr.in("update", "EncodeDocTree", func() error { tree = update.EncodeDocTree(view); return nil })
			sh.encTree.add(time.Since(t0), nodes)
			t0 = time.Now()
			_ = tr.in("store", "MarshalDocSnap", func() error {
				data = store.MarshalDocSnap(store.DocSnap{Name: sd.name, Scheme: sd.scheme, Tree: tree})
				return nil
			})
			sh.marshal.add(time.Since(t0), nodes)
			if sd.file != "" {
				stale = append(stale, sd.file)
			}
			sd.file, sd.gen, sd.ckpt = store.DocSnapName(sd.name, sh.gen, 0), sh.gen, false
			if err := tr.in("store", "WriteFileAtomic", func() error {
				return store.WriteFileAtomic(filepath.Join(sh.dir, sd.file), data)
			}); err != nil {
				return err
			}
			sh.dirtyDocs++
			sh.ckptBytes += len(data)
			sh.snapBytes += len(data)
			sh.snapNodes += nodes
		}
		man.Docs = append(man.Docs, store.ManifestDoc{Name: sd.name, File: sd.file, Gen: sd.gen})
	}
	sh.ckpts++
	sh.ckptBytes += len(store.MarshalManifest(man))
	if err := tr.in("store", "WriteManifest", func() error { return store.WriteManifest(sh.dir, man) }); err != nil {
		return err
	}
	return tr.in("bench", "retire", func() error {
		for idx := first - 1; idx > 0; idx-- {
			if os.Remove(filepath.Join(sh.dir, wal.SegmentName(idx))) != nil {
				break
			}
		}
		for _, f := range stale {
			os.Remove(filepath.Join(sh.dir, f))
		}
		return nil
	})
}

// recoverShadow is the shadow of NewDurableRepository on a crash copy,
// serially: manifest, then per document read + unmarshal + decode +
// label build, then wal.Replay with DecodeOps + Apply + Verify per
// record (recovery replays into auto-verifying sessions, as the live
// commit path does). It returns the time spent loading snapshots and
// the time spent replaying.
func (sh *shadow) recoverShadow(dir string) (load, replay time.Duration, err error) {
	tr := sh.tr
	id := tr.begin("bench", "shadow")
	defer tr.end(id)
	t0 := time.Now()
	var man store.Manifest
	if err := tr.in("store", "ReadManifest", func() (err error) { man, err = store.ReadManifest(dir); return err }); err != nil {
		return 0, 0, err
	}
	sessions := make(map[string]*update.Session, len(man.Docs))
	for _, e := range man.Docs {
		var data []byte
		if err := tr.in("store", "ReadFile", func() (err error) {
			data, err = os.ReadFile(filepath.Join(dir, e.File))
			return err
		}); err != nil {
			return 0, 0, err
		}
		var snap store.DocSnap
		t1 := time.Now()
		if err := tr.in("store", "UnmarshalDocSnap", func() (err error) { snap, err = store.UnmarshalDocSnap(data); return err }); err != nil {
			return 0, 0, err
		}
		unmarshalled := time.Since(t1)
		var doc *xmltree.Document
		t1 = time.Now()
		if err := tr.in("update", "DecodeDocTree", func() (err error) { doc, err = update.DecodeDocTree(snap.Tree); return err }); err != nil {
			return 0, 0, err
		}
		nodes := doc.LabelledCount()
		sh.decTree.add(time.Since(t1), nodes)
		sh.unmarshal.add(unmarshalled, nodes)
		scheme, ok := core.SchemeByName(snap.Scheme)
		if !ok {
			return 0, 0, fmt.Errorf("snapshot %s: unknown scheme %q", e.File, snap.Scheme)
		}
		if err := tr.in("update", "NewSession", func() (err error) {
			sessions[e.Name], err = update.NewSession(doc, &tracedLabeling{Interface: scheme.Factory(), tr: tr, scheme: snap.Scheme})
			return err
		}); err != nil {
			return 0, 0, err
		}
	}
	load = time.Since(t0)
	t0 = time.Now()
	err = tr.in("wal", "Replay", func() error {
		_, err := wal.Replay(dir, man.WALFirst, func(payload []byte) error {
			parts, err := parseCommit(payload)
			if err != nil {
				return err
			}
			for _, p := range parts {
				sess := sessions[p.name]
				if sess == nil {
					return fmt.Errorf("record for unknown document %q", p.name)
				}
				var ops []update.Op
				if err := tr.in("update", "DecodeOps", func() (err error) {
					ops, err = update.DecodeOps(sess.Document(), p.ops)
					return err
				}); err != nil {
					return err
				}
				if err := tr.in("update", "Session.Apply", func() error { _, err := sess.Apply(ops); return err }); err != nil {
					return err
				}
				if err := tr.in("update", "Session.Verify", sess.Verify); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	})
	return load, time.Since(t0), err
}

// --- the traced run --------------------------------------------------------------

// tracedWorld is a world driven from one client with a span around
// every facade call and the shadow replay after it.
type tracedWorld struct {
	*world
	tr *tracer
	sh *shadow
	// facade and shadowed sum, per commit request, the spans coverage
	// is made of; selfs are the requests' differences, whose median is
	// repo.batch_self_us (two fsyncs, the leader's and the shadow log's,
	// differ by more than the repository's own share of a commit, so
	// the mean of the differences says nothing under a synchronous
	// policy).
	facade, shadowed time.Duration
	selfs            samples
	commits          int
	multi            samples
	pinWarm, pinCold samples
	queries          samples
}

// shadowSince sums the layer spans recorded under "bench/shadow"
// parents since span index from.
func (tw *tracedWorld) shadowSince(from int) time.Duration {
	var total time.Duration
	for _, s := range tw.tr.spans[from:] {
		if s.Parent != 0 && tw.tr.spans[s.Parent-1].Name == "shadow" && tw.tr.spans[s.Parent-1].Layer == "bench" {
			total += s.dur()
		}
	}
	return total
}

// commitSelf sums, over the commit requests of a trace, the self time
// the shadow replay spent in each layer: where a commit's time goes.
// The decode probe beside the replay is left out.
func commitSelf(spans []span, self []time.Duration) map[string]time.Duration {
	commit := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && (s.Name == workload.OpBatch.String() || s.Name == workload.OpMultiBatch.String()) {
			commit[s.Req] = true
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if !commit[s.Req] || s.Parent == 0 || s.Layer == "bench" || s.Layer == "repo" {
			continue
		}
		if p := spans[s.Parent-1]; p.Layer == "bench" && p.Name == "probe" {
			continue
		}
		out[s.Layer] += self[i]
	}
	return out
}

// do issues one event: the real facade call under a repo span (its
// build callback a nested bench span), then the shadow replay.
func (tw *tracedWorld) do(ev event) error {
	tr, w := tw.tr, tw.world
	from := len(tr.spans)
	root := tr.root(ev.Kind.String())
	defer tr.end(root)
	name := w.names[ev.Doc]
	switch ev.Kind {
	case workload.OpQuery:
		id := tr.begin("repo", "QueryFunc")
		err := w.query(ev.Doc)
		tr.end(id)
		tw.queries = append(tw.queries, tr.spans[id-1].dur())
		if err != nil {
			return err
		}
		return tw.sh.query(ev.Doc)
	case workload.OpSnapshotPin:
		id := tr.begin("repo", "Snapshot")
		snap, err := w.leader.Snapshot(name)
		tr.end(id)
		if err != nil {
			return err
		}
		if sd := tw.sh.docs[ev.Doc]; sd.cold {
			tw.pinCold = append(tw.pinCold, tr.spans[id-1].dur())
		} else {
			tw.pinWarm = append(tw.pinWarm, tr.spans[id-1].dur())
		}
		err = tr.in("repo", "Snapshot.Query", func() error { _, err := snap.Query(name, "//item"); return err })
		_ = tr.in("repo", "Snapshot.Close", func() error { snap.Close(); return nil })
		if err != nil {
			return err
		}
		return tw.sh.snapshotRead(ev.Doc)
	}
	var build time.Duration
	timedBuild := func(st *docState, doc *xmltree.Document, b *update.Batch, seed uint64, n int) {
		id := tr.begin("bench", "build")
		buildCommit(st, doc, b, seed, n, w.c.Wide)
		tr.end(id)
		build += tr.spans[id-1].dur()
	}
	var err error
	var id int
	if ev.Kind == workload.OpMultiBatch && ev.Doc2 != ev.Doc {
		other := w.names[ev.Doc2]
		id = tr.begin("repo", "DurableRepository.MultiBatch")
		_, err = w.leader.MultiBatch([]string{name, other}, func(m map[string]*xmldyn.MultiDoc) error {
			timedBuild(&w.state[ev.Doc], m[name].Document(), m[name].Batch(), ev.Seed, w.c.BatchOps/2)
			timedBuild(&w.state[ev.Doc2], m[other].Document(), m[other].Batch(), ev.Seed>>7, w.c.BatchOps/2)
			return nil
		})
		tr.end(id)
		tw.multi = append(tw.multi, tr.spans[id-1].dur())
	} else {
		id = tr.begin("repo", "DurableRepository.Batch")
		_, err = w.leader.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
			timedBuild(&w.state[ev.Doc], doc, b, ev.Seed, w.c.BatchOps)
			return nil
		})
		tr.end(id)
	}
	if err != nil {
		return err
	}
	if err := tw.sh.commit(ev); err != nil {
		return fmt.Errorf("shadow commit: %w", err)
	}
	facade, shadowed := tr.spans[id-1].dur()-build, tw.shadowSince(from)
	tw.facade += facade
	tw.shadowed += shadowed
	tw.selfs = append(tw.selfs, facade-shadowed)
	tw.commits++
	vs := w.leader.VersionStats()
	tw.sh.liveRootsMax = max(tw.sh.liveRootsMax, vs.LiveVersions)
	tw.sh.retainedMax = max(tw.sh.retainedMax, vs.RetainedVersions)
	return nil
}

// commitN issues the next n events of client 0's stream as traced
// commits.
func (tw *tracedWorld) commitN(n int) error {
	for i := 0; i < n; i++ {
		ev := tw.take(0)
		if ev.Kind != workload.OpMultiBatch {
			ev.Kind = workload.OpBatch
		}
		if err := tw.do(ev); err != nil {
			return err
		}
	}
	return nil
}

// countingConn counts the bytes a follower reads from its leader.
type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// runTraced is the traced run of a workload: the same stages as the
// untraced run, from one client, each facade call a span and each
// followed by its shadow replay through the layers; then the probes
// that need no shadow (contention, allocation, the log's sync
// policies). It reports every per-layer metric and writes the spans to
// OutDir/trace-<workload>.jsonl. End-to-end metrics are never taken
// from it.
func runTraced(c config, o runOpts) (*result, error) {
	r := newResult(c, o.Seed, true)
	for _, d := range perLayer {
		r.set(perLayer, d.Name, 0, 0)
	}
	base, err := os.MkdirTemp(o.OutDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	tr := newTracer()
	var stats *spanStats
	if c.Stage == stageStorm {
		err = tracedStorm(c, o, tr, r)
	} else {
		err = tracedRepo(c, o, base, tr, r)
	}
	if err != nil {
		return nil, err
	}
	if stats, err = analyse(tr.spans); err != nil {
		r.fail("malformed span tree: " + err.Error())
	} else {
		for layer, d := range stats.layerSelf {
			r.Counts["self_us."+layer] = d.Microseconds()
		}
	}
	r.Counts["spans"] = int64(len(tr.spans))
	if err := writeTrace(filepath.Join(o.OutDir, "trace-"+c.Name+".jsonl"), tr.spans); err != nil {
		return nil, err
	}
	return r, nil
}

// tracedStorm traces one pass of the label storm and times one
// untraced pass beside it. No repository, log or store is entered, so
// those layers report 0.
func tracedStorm(c config, o runOpts, tr *tracer, r *result) error {
	traced, err := runStorm(c, o.Seed, 0, tr) // no time: one pass
	if err != nil {
		return err
	}
	plain, err := runStorm(c, o.Seed, time.Duration(untracedStageShare*float64(o.measure())), nil)
	if err != nil {
		return err
	}
	r.Attempted = int64(len(traced.lat) + len(plain.lat))
	r.set(perLayer, "e2e.ops_per_s", plain.opsPerSecond(), len(plain.passes))
	r.set(perLayer, "e2e.op_p50_us", us(plain.lat.quantile(0.5)), len(plain.lat))
	for _, f := range append(traced.failures, plain.failures...) {
		r.fail(f)
	}
	stats, err := analyse(tr.spans)
	if err != nil {
		return err
	}
	for _, scheme := range stormSchemes {
		sc := traced.counts[scheme]
		if sc != plain.counts[scheme] {
			r.fail("label storm " + scheme + ": traced and untraced counts differ")
		}
		calls := stats.byName["schemes/"+scheme+".NodeInserted"]
		r.set(perLayer, "schemes."+scheme+".insert_ns", float64(calls.mean().Nanoseconds()), len(calls))
		r.set(perLayer, "schemes."+scheme+".bits_per_node", sc.bitsPerNode(), 0)
		r.set(perLayer, "schemes."+scheme+".relabels", float64(sc.Relabeled), 0)
		r.set(perLayer, "schemes."+scheme+".overflows", float64(sc.Overflows), 0)
	}
	ops := stats.byName["update/Session.op"]
	r.set(perLayer, "update.apply_us", us(ops.mean()), len(ops))
	var roots time.Duration
	for _, s := range tr.spans {
		if s.Parent == 0 {
			roots += s.dur()
		}
	}
	r.set(perLayer, "trace.coverage", ratio(float64(stats.layerSelf["update"]+stats.layerSelf["schemes"]), float64(roots)), len(ops))
	r.set(perLayer, "trace.overhead", ratio(float64(traced.passes[0]), float64(plain.passes.quantile(0.5))), traced.passOps)
	probeDoc(workload.BaseDocument(corpusSeed, c.StormNodes), "qed", r)
	return nil
}

// Shares of -seconds the timed parts of a traced repository run get;
// the fixed work around them (checkpoint cycles, recoveries, follower
// paths, log probes) adds a few seconds.
const (
	untracedStageShare = 0.40 // the workload's measured stage as the untraced run runs it, for e2e.*
	tracedMainShare    = 0.25 // main mix, one client, facade call plus shadow replay
	tracedReadShare    = 0.05 // reads on a workload whose mix has none
	untracedPassShare  = 0.15 // each of the two untraced passes
	tracedCkptCycles   = 4
	tracedRecoveries   = 2
	tracedBursts       = 3
	tracedColdAttaches = 3
)

// tracedRepo is the traced run of a repository workload. Whatever the
// workload's measured stage, the traced run takes its corpus and its
// streams through every stage — commits, reads, checkpoints, recovery,
// replication — so that every layer reports on every corpus.
func tracedRepo(c config, o runOpts, base string, tr *tracer, r *result) error {
	w, err := setup(c, o.Seed, base, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	r.StreamHash = w.hash
	share := func(f float64) time.Duration { return time.Duration(f * float64(o.measure())) }
	replicated, readMix := c.Stage == stageReplicate, c.Stage == stageReads

	// The measured stage, untraced, before the shadow copies the
	// leader's documents: the driver's record of the workload's timings.
	u := newResult(c, o.Seed, false)
	if err := w.measure(share(untracedStageShare), u); err != nil {
		return fmt.Errorf("measured stage: %w", err)
	}
	r.Failed += u.Failed
	for _, f := range u.Failures {
		r.fail(f)
	}
	r.set(perLayer, "e2e.ops_per_s", u.Detail["ops_per_s"].Value, u.Detail["ops_per_s"].Samples)
	r.set(perLayer, "e2e.op_p50_us", u.Detail["op_p50_us"].Value, u.Detail["op_p50_us"].Samples)

	sh, err := newShadow(w, tr)
	if err != nil {
		return err
	}
	defer sh.close()
	// Every measured stage but the plain commit loop pins a snapshot,
	// after which the leader publishes a version on every commit.
	sh.versioning = c.Stage != stageCommits
	tw := &tracedWorld{world: w, tr: tr, sh: sh}
	_, active0, _ := w.leader.SegmentRange()

	// Main stage, one client.
	mainFor := share(tracedMainShare)
	var live *follower
	var wire atomic.Int64
	var catchups samples
	var lagMax uint64
	var walBytes int64
	burst := func(n int) error {
		size0, _ := w.leader.LogSize()
		for i := 0; i < n; i++ {
			if err := tw.commitN(1); err != nil {
				return err
			}
			lagMax = max(lagMax, live.Lag())
		}
		t0 := time.Now()
		err := w.awaitCaughtUp(live)
		catchups = append(catchups, time.Since(t0))
		size1, _ := w.leader.LogSize()
		walBytes += size1 - size0
		return err
	}
	attach := func() error {
		if err := w.startShipper(); err != nil {
			return err
		}
		if live, err = w.attachWith(func(conn net.Conn) net.Conn { return countingConn{conn, &wire} }); err != nil {
			return err
		}
		return w.awaitCaughtUp(live)
	}
	if replicated {
		if err := attach(); err != nil {
			return err
		}
		wire.Store(0)
		for deadline := time.Now().Add(mainFor); time.Now().Before(deadline); {
			if err := burst(c.BurstCommits); err != nil {
				return err
			}
		}
	} else {
		for deadline := time.Now().Add(mainFor); time.Now().Before(deadline); {
			if err := tw.do(w.take(0)); err != nil {
				return err
			}
		}
	}
	mainCommits, mainFacade := tw.commits, tw.facade
	_, active1, _ := w.leader.SegmentRange()
	if !readMix {
		for deadline := time.Now().Add(share(tracedReadShare)); time.Now().Before(deadline); {
			ev := w.take(0)
			ev.Kind = workload.OpQuery
			if ev.Seed%92 >= 70 {
				ev.Kind = workload.OpSnapshotPin
			}
			if err := tw.do(ev); err != nil {
				return err
			}
		}
	}
	// Cold pins: one write, then the first pin after it.
	for i := 0; i < min(c.CkptCommits, 40); i++ {
		ev := w.take(0)
		ev.Kind = workload.OpBatch
		if err := tw.do(ev); err != nil {
			return err
		}
		ev.Kind = workload.OpSnapshotPin
		if err := tw.do(ev); err != nil {
			return err
		}
	}

	// Checkpoint cycles.
	var ckpts samples
	for i := 0; i < tracedCkptCycles; i++ {
		if err := tw.commitN(c.CkptCommits); err != nil {
			return err
		}
		root := tr.root("checkpoint")
		t0 := time.Now()
		err := tr.in("repo", "DurableRepository.Checkpoint", w.leader.Checkpoint)
		ckpts = append(ckpts, time.Since(t0))
		if err == nil {
			err = sh.checkpoint()
		}
		tr.end(root)
		if err != nil {
			return err
		}
	}

	// Crash copy, real and shadow recovery.
	if err := tw.commitN(c.RestartCommits); err != nil {
		return err
	}
	want, err := serialize(w.leader)
	if err != nil {
		return err
	}
	sh.versioning = true // serialize pinned a snapshot of every document
	end, _ := w.leader.EndPosition()
	copyDir := filepath.Join(base, "crash-copy")
	if err := crashCopy(w.dir, copyDir, end); err != nil {
		return err
	}
	var recovers, loads, replays samples
	for i := 0; i < tracedRecoveries; i++ {
		root := tr.root("recover")
		var rec *xmldyn.DurableRepository
		t0 := time.Now()
		err := tr.in("repo", "NewDurableRepository", func() (err error) {
			rec, err = xmldyn.NewDurableRepository(copyDir, c.durableOptions())
			return err
		})
		recovers = append(recovers, time.Since(t0))
		if err == nil {
			if i == 0 {
				if diff := recoveredDiff(rec, want); diff != "" {
					r.fail("recovered state: " + diff)
				}
			}
			err = tr.in("repo", "DurableRepository.Close", rec.Close)
		}
		var load, replay time.Duration
		if err == nil {
			load, replay, err = sh.recoverShadow(copyDir)
		}
		tr.end(root)
		if err != nil {
			return err
		}
		loads, replays = append(loads, load), append(replays, replay)
	}

	// Follower apply path, layer by layer, on the same history.
	var tailNext, applyRec acc
	var bootstrap time.Duration
	var backfillBytes int
	{
		root := tr.root("follower")
		fdir, err := os.MkdirTemp(base, "layer-follower-")
		if err != nil {
			return err
		}
		t0 := time.Now()
		var img store.BootstrapImage
		err = tr.in("store", "LoadBootstrapImage", func() (err error) { img, err = store.LoadBootstrapImage(w.dir); return err })
		var fr *repo.FollowerRepository
		if err == nil {
			err = tr.in("repo", "OpenFollower", func() (err error) {
				fr, err = repo.OpenFollower(fdir, repo.DurableOptions{Sync: wal.SyncAsync})
				return err
			})
		}
		if err == nil {
			err = tr.in("repo", "FollowerRepository.InstallBootstrap", func() error { return fr.InstallBootstrap(img) })
		}
		bootstrap = time.Since(t0)
		var tail *wal.TailReader
		if err == nil {
			tail, err = wal.OpenTail(w.dir, wal.Position{Segment: img.Manifest.WALFirst})
		}
		for err == nil {
			var ev wal.TailEvent
			t0 := time.Now()
			err = tr.in("wal", "TailReader.Next", func() (err error) { ev, err = tail.Next(); return err })
			if errors.Is(err, wal.ErrNoRecord) {
				err = nil
				break
			}
			tailNext.add(time.Since(t0), 1)
			if err != nil {
				break
			}
			if ev.Payload == nil {
				err = tr.in("repo", "FollowerRepository.BeginSegment", func() error { return fr.BeginSegment(ev.Pos.Segment) })
				continue
			}
			t0 = time.Now()
			err = tr.in("repo", "FollowerRepository.ApplyRecord", func() error { return fr.ApplyRecord(ev.Payload) })
			applyRec.add(time.Since(t0), 1)
			backfillBytes += wal.FrameHeaderSize + len(ev.Payload)
		}
		if tail != nil {
			tail.Close()
		}
		if fr != nil {
			if err == nil {
				got, serr := serialize(fr)
				if serr != nil {
					err = serr
				} else if diff := sameDocs(want, got); diff != "" {
					r.fail("layer-driven follower differs from leader: " + diff)
				}
			}
			fr.Close()
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("follower apply path: %w", err)
		}
	}

	// A real follower on the socket, bursts with the lag watched.
	if live == nil {
		if err := attach(); err != nil {
			return err
		}
		wire.Store(0)
		for i := 0; i < tracedBursts; i++ {
			if err := burst(c.BurstCommits); err != nil {
				return err
			}
		}
	}
	wireBytes := wire.Load()
	got, err := serialize(live)
	if err != nil {
		return err
	}
	if diff := sameDocs(mustSerialize(w.leader, r), got); diff != "" {
		r.fail("follower differs from leader: " + diff)
	}
	if err := live.stop(); err != nil {
		return err
	}
	var attaches samples
	for i := 0; i < tracedColdAttaches; i++ {
		took, err := w.coldAttach()
		if err != nil {
			return fmt.Errorf("cold attach: %w", err)
		}
		attaches = append(attaches, took)
	}
	tracedCommits := tw.commits

	// Untraced passes on the same leader: one client (what tracing
	// costs; the base of the contention ratio), all clients (contention,
	// the commit tail), a fixed block of commits between two memory
	// statistics readings. The shadow is not kept in step from here on.
	one := w.closedLoop(1, share(untracedPassShare))
	many := w.closedLoop(w.clients, share(untracedPassShare))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	block, err := w.commitN(0, max(c.CkptCommits, 50))
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	for _, name := range w.names {
		if err := w.leader.Verify(name); err != nil {
			r.fail("verify " + name + ": " + err.Error())
		}
	}
	r.Attempted = u.Attempted + int64(len(tr.spans)/4+one.attempted()+many.attempted()+len(block))
	r.Failed += int64(one.failed + many.failed)

	// Metrics.
	set := func(name string, v float64, n int) { r.set(perLayer, name, v, n) }
	stats, err := analyse(tr.spans)
	if err != nil {
		return err
	}
	for layer, d := range commitSelf(tr.spans, stats.self) {
		r.Counts["commit_self_us."+layer] = d.Microseconds()
	}
	mean := func(key string) (float64, int) { s := stats.byName[key]; return us(s.mean()), len(s) }
	n := tw.commits
	set("repo.batch_self_us", us(tw.selfs.quantile(0.5)), n)
	set("repo.multibatch_us_p50", us(tw.multi.quantile(0.5)), len(tw.multi))
	set("repo.contention_ratio", ratio(us(many.commit.lat.quantile(0.5)), us(one.commit.lat.quantile(0.5))), len(many.commit.lat))
	set("repo.scaling", ratio(perSecond(len(many.commit.lat), many.elapsed), perSecond(len(one.commit.lat), one.elapsed)), len(many.commit.lat))
	set("repo.commit_p99_us", us(many.commit.lat.quantile(0.99)), len(many.commit.lat))
	set("repo.snapshot_pin_us_p50", us(tw.pinWarm.quantile(0.5)), len(tw.pinWarm))
	set("repo.snapshot_pin_cold_us_p50", us(tw.pinCold.quantile(0.5)), len(tw.pinCold))
	set("repo.query_p99_us", us(tw.queries.quantile(0.99)), len(tw.queries))
	set("repo.allocs_per_commit", ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(block))), len(block))
	set("repo.alloc_bytes_per_commit", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(len(block))), len(block))
	set("repo.version_live_roots_max", float64(sh.liveRootsMax), 0)
	set("repo.version_retained_max", float64(sh.retainedMax), 0)
	set("repo.checkpoint_ms_p50", ms(ckpts.quantile(0.5)), len(ckpts))
	set("repo.checkpoint_dirty_docs_mean", ratio(float64(sh.dirtyDocs), float64(sh.ckpts)), sh.ckpts)
	set("repo.checkpoint_bytes_written", ratio(float64(sh.ckptBytes), float64(sh.ckpts)), sh.ckpts)
	set("repo.recover_ms_p50", ms(recovers.quantile(0.5)), len(recovers))
	set("repo.recover_snapshot_ms", ms(loads.quantile(0.5)), len(loads))
	set("repo.recover_replay_ms", ms(replays.quantile(0.5)), len(replays))

	v, k := mean("update/EncodeOps")
	set("update.encode_ops_us", v, k)
	set("update.encode_bytes_per_op", ratio(float64(sh.encBytes), float64(sh.encOps)), sh.encOps)
	v, k = mean("update/Session.Apply")
	set("update.apply_us", v, k)
	v, k = mean("update/Session.Verify")
	set("update.verify_us", v, k)
	v, k = mean("update/DecodeOps")
	set("update.decode_ops_us", v, k)
	set("update.encode_doctree_us_per_knode", sh.encTree.per(us, 1000), sh.encTree.n)
	set("update.decode_doctree_us_per_knode", sh.decTree.per(us, 1000), sh.decTree.n)

	type schemeTotals struct {
		bits, nodes          int
		relabeled, overflows int64
	}
	totals := map[string]*schemeTotals{}
	for _, sd := range sh.docs {
		t := totals[sd.scheme]
		if t == nil {
			t = &schemeTotals{}
			totals[sd.scheme] = t
		}
		lab, st := sd.sess.Labeling(), sd.sess.Labeling().Stats()
		t.bits += labeling.TotalBits(lab, sd.sess.Document())
		t.nodes += sd.sess.Document().LabelledCount()
		t.relabeled += st.Relabeled
		t.overflows += st.OverflowEvents
	}
	for scheme, t := range totals {
		calls := stats.byName["schemes/"+scheme+".NodeInserted"]
		set("schemes."+scheme+".insert_ns", float64(calls.mean().Nanoseconds()), len(calls))
		set("schemes."+scheme+".bits_per_node", ratio(float64(t.bits), float64(t.nodes)), t.nodes)
		set("schemes."+scheme+".relabels", float64(t.relabeled), 0)
		set("schemes."+scheme+".overflows", float64(t.overflows), 0)
	}

	v, k = mean("xmltree/PublishVersion")
	set("xmltree.publish_version_us", v, k)
	v, k = mean("xmltree/OpenVersion")
	set("xmltree.open_version_us", v, k)

	set("wal.bytes_per_commit", ratio(float64(sh.payloadBytes+sh.commits*wal.FrameHeaderSize), float64(sh.commits)), sh.commits)
	set("wal.rotations", float64(active1-active0), mainCommits)
	set("wal.tail_next_us", tailNext.per(us, 1), tailNext.n)
	set("wal.replay_us_per_record", 0, 0)
	if err := probeWAL(sh.payloads, w.clients, base, r); err != nil {
		return err
	}

	set("store.marshal_docsnap_us_per_knode", sh.marshal.per(us, 1000), sh.marshal.n)
	set("store.unmarshal_docsnap_us_per_knode", sh.unmarshal.per(us, 1000), sh.unmarshal.n)
	v, k = mean("store/WriteFileAtomic")
	set("store.write_file_atomic_us", v, k)
	v, k = mean("store/WriteManifest")
	set("store.manifest_write_us", v, k)
	set("store.snap_bytes_per_node", ratio(float64(sh.snapBytes), float64(sh.snapNodes)), sh.snapNodes)

	set("replica.catchup_ms_p50", ms(catchups.quantile(0.5)), len(catchups))
	set("replica.lag_bytes_max", float64(lagMax), 0)
	set("replica.bootstrap_ms", ms(bootstrap), 1)
	set("replica.cold_attach_ms_p50", ms(attaches.quantile(0.5)), len(attaches))
	set("replica.backfill_mb_per_s", ratio(float64(backfillBytes)/1e6, (tailNext.d+applyRec.d).Seconds()), applyRec.n)
	set("replica.wire_bytes_per_wal_byte", ratio(float64(wireBytes), float64(walBytes)), 0)
	set("replica.follower_apply_us_per_record", applyRec.per(us, 1), applyRec.n)

	set("trace.coverage", ratio(float64(tw.shadowed), float64(tw.facade)), n)
	tracedMean := ratio(us(mainFacade), float64(mainCommits))
	set("trace.overhead", ratio(tracedMean, us(one.commit.lat.mean())), mainCommits)
	r.Counts["traced_commits"] = int64(tracedCommits)
	r.Counts["main_commits"] = int64(mainCommits)

	// The largest document, for the per-node probes.
	big := sh.docs[0]
	for _, sd := range sh.docs {
		if sd.sess.Document().LabelledCount() > big.sess.Document().LabelledCount() {
			big = sd
		}
	}
	probeDoc(big.sess.Document(), big.scheme, r)
	return nil
}

// mustSerialize serializes the leader, recording a failure instead of
// returning one.
func mustSerialize(rd reader, r *result) map[string]string {
	docs, err := serialize(rd)
	if err != nil {
		r.fail("serialize: " + err.Error())
	}
	return docs
}
