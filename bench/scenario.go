package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"xmldyn"
	"xmldyn/internal/labeling"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// runOpts are the knobs of one run that do not belong to the workload.
type runOpts struct {
	Seed    int64
	Seconds float64 // how long the measured stage runs
	OutDir  string  // scratch directories and trace files go here
}

func (o runOpts) measure() time.Duration { return time.Duration(o.Seconds * float64(time.Second)) }

// corpusSeed generates every document of every corpus. The documents
// are the database and stay the same for every -seed; the seed drives
// the traffic (streams, positions, picks). A seeded corpus moves every
// size-dependent figure — query time, label bits, bytes on disk — by
// 10 to 20 % from seed to seed, more than the bounds they are held to.
const corpusSeed = 1

// setupReps is how many times a run builds its world. setup_s is not
// the time of one of them but the sum, over the pieces a set-up is made
// of, of the fastest each piece was in any of them. The driver compares
// the medians of two sets of runs a quarter of an hour apart, and in
// that time the sandbox's speed wanders by more than setup_s's bound
// allows: the fastest whole set-up of nine (0.1 to 0.4 s each) moved by
// up to 27 % between two such sets. What the neighbours take comes in
// bursts of milliseconds, so a piece of a millisecond finds a quiet
// moment in one of nine tries where a piece of 100 ms does not: the
// label storm's set-up, 2 ms long and repeated every pass, moved by
// 5 % over the same sets. The last world built is the one measured.
const setupReps = 9

// world is one workload's system under test: an open durable leader
// with its corpus, and the clients' pre-generated streams.
type world struct {
	c       config
	clients int
	base    string // scratch directory of this run, removed at the end
	dir     string // the leader's directory
	leader  *xmldyn.DurableRepository
	names   []string
	schemes []string   // per document
	state   []docState // per document sawtooth direction
	evs     [][]event
	next    []int // per-client stream cursor
	hash    string
	repl    *replication
}

func (c config) clientCount() int {
	if c.Clients > 0 {
		return c.Clients
	}
	return min(runtime.NumCPU(), 4)
}

// durableOptions are the workload's leader options: its own sync
// policy, auto-checkpoint off.
func (c config) durableOptions() xmldyn.DurableOptions {
	return xmldyn.DurableOptions{Sync: c.Sync, SegmentBytes: c.SegmentBytes, AutoCheckpointBytes: -1}
}

// laps are the times of the pieces one set-up is made of: opening the
// leader, building the corpus, opening the documents, generating the
// streams, every warm-up and history commit, every checkpoint, the
// reopening. A nil *laps records nothing.
type laps []time.Duration

// lap files the time since *t as the next piece and restarts the clock.
func (l *laps) lap(t *time.Time) {
	now := time.Now()
	if l != nil {
		*l = append(*l, now.Sub(*t))
	}
	*t = now
}

// commits files every commit's latency as a piece of its own.
func (l *laps) commits(lat samples, t *time.Time) {
	if l != nil {
		*l = append(*l, lat...)
	}
	*t = time.Now()
}

// setup builds a world under base: leader directory, corpus, streams,
// warm-up commits and (for ckpt_restart) a checkpointed history. This
// is the work setup_s times, piece by piece into l. The leader commits
// it under SyncAsync and is then reopened under the workload's own
// policy: with an fsync per set-up commit, setup_s would be a
// measurement of the sandbox's disk, whose median fsync drifts by a
// factor of 1.7 within a minute.
func setup(c config, seed int64, base string, l *laps) (*world, error) {
	t := time.Now()
	dir, err := os.MkdirTemp(base, "leader-")
	if err != nil {
		return nil, err
	}
	building := c.durableOptions()
	building.Sync = wal.SyncAsync
	leader, err := xmldyn.NewDurableRepository(dir, building)
	if err != nil {
		return nil, err
	}
	l.lap(&t)
	w := &world{c: c, clients: c.clientCount(), base: base, dir: dir, leader: leader}
	names, docs := workload.BuildCorpus(c.Profile, corpusSeed)
	l.lap(&t)
	w.names, w.state = names, make([]docState, len(names))
	for i, name := range names {
		scheme := c.Schemes[i%len(c.Schemes)]
		w.schemes = append(w.schemes, scheme)
		if err := leader.Open(name, docs[i], scheme); err != nil {
			leader.Close()
			return nil, err
		}
		l.lap(&t)
	}
	if w.evs, w.hash, err = genStreams(c, w.clients, seed); err != nil {
		leader.Close()
		return nil, err
	}
	l.lap(&t)
	w.next = make([]int, w.clients)
	lat, err := w.commitN(0, c.Warmup)
	if err != nil {
		leader.Close()
		return nil, err
	}
	l.commits(lat, &t)
	for done := 0; done < c.History; {
		n := min(max(c.HistoryCkpt, 1), c.History-done)
		if lat, err = w.commitN(0, n); err == nil {
			l.commits(lat, &t)
			err = leader.Checkpoint()
		}
		if err != nil {
			leader.Close()
			return nil, err
		}
		l.lap(&t)
		done += n
	}
	if c.Sync == wal.SyncAsync {
		return w, nil
	}
	if err := leader.Close(); err != nil {
		return nil, err
	}
	if w.leader, err = xmldyn.NewDurableRepository(dir, c.durableOptions()); err != nil {
		return nil, fmt.Errorf("reopen under %v: %w", c.Sync, err)
	}
	l.lap(&t)
	return w, nil
}

// setupTimed builds the world setupReps times, discarding all but the
// last, and reports as setup_s the sum over the set-up's pieces of each
// piece's fastest time.
func setupTimed(c config, seed int64, base string, r *result) (*world, error) {
	var w *world
	var best laps
	var whole samples
	for i := 0; i < setupReps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(w.dir)
		}
		runtime.GC()
		var l laps
		t0 := time.Now()
		var err error
		if w, err = setup(c, seed, base, &l); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		whole = append(whole, time.Since(t0))
		if best == nil {
			best = l
		}
		for k := range best {
			best[k] = min(best[k], l[k])
		}
	}
	r.StreamHash = w.hash
	r.set(endToEnd, "setup_s", samples(best).sum().Seconds(), len(best))
	r.Counts["setup_fastest_whole_us"] = whole.fastest().Microseconds()
	r.Counts["clients"] = int64(w.clients)
	r.Counts["docs"] = int64(len(w.names))
	return w, nil
}

// close stops replication and the leader. The scratch directory is
// removed by whoever created base.
func (w *world) close() error {
	if w.repl != nil {
		w.repl.close()
	}
	return w.leader.Close()
}

// take returns the next event of a client's stream, wrapping around.
func (w *world) take(cl int) event {
	ev := w.evs[cl][w.next[cl]%len(w.evs[cl])]
	w.next[cl]++
	return ev
}

// commit issues one write event through the facade: a two-document
// MultiBatch when the event says so, a single-document Batch
// otherwise.
func (w *world) commit(ev event) error {
	name := w.names[ev.Doc]
	if ev.Kind == workload.OpMultiBatch && ev.Doc2 != ev.Doc {
		other := w.names[ev.Doc2]
		_, err := w.leader.MultiBatch([]string{name, other}, func(m map[string]*xmldyn.MultiDoc) error {
			buildCommit(&w.state[ev.Doc], m[name].Document(), m[name].Batch(), ev.Seed, w.c.BatchOps/2, w.c.Wide)
			buildCommit(&w.state[ev.Doc2], m[other].Document(), m[other].Batch(), ev.Seed>>7, w.c.BatchOps/2, w.c.Wide)
			return nil
		})
		return err
	}
	_, err := w.leader.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
		buildCommit(&w.state[ev.Doc], doc, b, ev.Seed, w.c.BatchOps, w.c.Wide)
		return nil
	})
	return err
}

// commitN issues the next n events of one client's stream as commits,
// whatever their class (the fixed work of a read-mostly stream still
// needs writes), and returns each commit's latency.
func (w *world) commitN(cl, n int) (samples, error) {
	lat := make(samples, 0, n)
	for i := 0; i < n; i++ {
		ev := w.take(cl)
		if ev.Kind != workload.OpMultiBatch {
			ev.Kind = workload.OpBatch
		}
		t0 := time.Now()
		if err := w.commit(ev); err != nil {
			return lat, fmt.Errorf("commit on %s: %w", w.names[ev.Doc], err)
		}
		lat = append(lat, time.Since(t0))
	}
	return lat, nil
}

// query is the lock-held read: QueryFunc under the document's read lock.
func (w *world) query(doc int) error {
	return w.leader.QueryFunc(w.names[doc], "//item", func([]*xmltree.Node) error { return nil })
}

// snapshotRead is the lock-free read: pin a version, query it, release it.
func (w *world) snapshotRead(doc int) error {
	snap, err := w.leader.Snapshot(w.names[doc])
	if err != nil {
		return err
	}
	_, err = snap.Query(w.names[doc], "//item")
	snap.Close()
	return err
}

// timed are the latencies of one operation class with the time each
// operation completed, measured from the start of its stage.
type timed struct {
	lat samples
	at  []time.Duration
}

func (t *timed) add(lat, at time.Duration) {
	t.lat = append(t.lat, lat)
	t.at = append(t.at, at)
}

func (t *timed) merge(o *timed) {
	t.lat = append(t.lat, o.lat...)
	t.at = append(t.at, o.at...)
}

// opStats is what one closed loop collected, per operation class.
type opStats struct {
	commit, query, snap timed
	elapsed             time.Duration
	failed              int
	firstErr            error
}

func (s *opStats) merge(o *opStats) {
	s.commit.merge(&o.commit)
	s.query.merge(&o.query)
	s.snap.merge(&o.snap)
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func (s *opStats) attempted() int {
	return len(s.commit.lat) + len(s.query.lat) + len(s.snap.lat) + s.failed
}

// rates cuts the loop into equal windows of about fifty operations (at
// least 100 ms each) and returns the throughput of every window over
// the given classes. The median window is what gets reported, so that
// a stall of the sandbox — a neighbour's burst, a late flush — costs
// one window, not a share of the whole stage. A loop too short or too
// slow for two windows is one window.
func (s *opStats) rates(classes ...*timed) floats {
	total := 0
	for _, c := range classes {
		total += len(c.at)
	}
	windows := min(total/50, int(s.elapsed/(100*time.Millisecond)))
	if windows < 2 {
		return floats{perSecond(total, s.elapsed)}
	}
	width := s.elapsed / time.Duration(windows)
	counts := make([]int, windows)
	for _, c := range classes {
		for _, at := range c.at {
			if i := int(at / width); i < windows {
				counts[i]++
			}
		}
	}
	out := make(floats, windows)
	for i, n := range counts {
		out[i] = perSecond(n, width)
	}
	return out
}

// do runs one event and files its latency.
func (w *world) do(ev event, st *opStats, start time.Time) {
	t0 := time.Now()
	var err error
	var into *timed
	switch ev.Kind {
	case workload.OpQuery:
		err, into = w.query(ev.Doc), &st.query
	case workload.OpSnapshotPin:
		err, into = w.snapshotRead(ev.Doc), &st.snap
	default:
		err, into = w.commit(ev), &st.commit
	}
	if err != nil {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
		return
	}
	t1 := time.Now()
	into.add(t1.Sub(t0), t1.Sub(start))
}

// closedLoop runs one goroutine per client for d; each issues the next
// event of its own stream when the previous one returned.
func (w *world) closedLoop(clients int, d time.Duration) *opStats {
	per := make([]opStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.do(w.take(cl), &per[cl], start)
			}
		}(cl)
	}
	wg.Wait()
	total := &opStats{elapsed: time.Since(start)}
	for i := range per {
		total.merge(&per[i])
	}
	return total
}

// fixedCommit commits on one document with a seed of the benchmark's
// own, outside the clients' streams.
func (w *world) fixedCommit(doc int, seed uint64) error {
	return w.commit(event{Event: workload.Event{Kind: workload.OpBatch, Doc: doc, Doc2: doc}, Seed: seed})
}

// settle commits on every document until its sawtooth is back at the
// base tree and then grows it by two commits, so that what follows
// finds every document in the same state however long the measured
// stage ran.
func (w *world) settle() (int, error) {
	commits := 0
	for doc := range w.names {
		for grow := 2; grow > 0; commits++ {
			atBase := w.state[doc].items == 0
			if err := w.fixedCommit(doc, uint64(doc)+1); err != nil {
				return commits, err
			}
			if atBase || grow < 2 {
				grow--
			}
		}
	}
	return commits, nil
}

// --- replication -------------------------------------------------------------

// replication is the leader's shipper listening on a unix socket in
// the run's scratch directory. (A socket file rather than loopback
// TCP: the benchmark must stay inside its checkout and must not need
// a configured network; the byte stream and its buffering are the
// same.)
type replication struct {
	shipper *xmldyn.Shipper
	sock    string
	served  chan struct{}
}

func (w *world) startShipper() error {
	if w.repl != nil {
		return nil
	}
	sock := filepath.Join(w.base, "ship.sock")
	// Unix socket paths are short (108 bytes); a path relative to the
	// working directory keeps deep checkouts within the limit.
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, sock); err == nil && len(rel) < len(sock) {
			sock = rel
		}
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	rp := &replication{
		shipper: xmldyn.NewShipper(w.leader, xmldyn.ShipperOptions{Heartbeat: 2 * time.Millisecond}),
		sock:    sock, served: make(chan struct{}),
	}
	go func() {
		defer close(rp.served)
		_ = rp.shipper.Serve(ln) // returns net.ErrClosed once the shipper closes
	}()
	w.repl = rp
	return nil
}

func (rp *replication) close() {
	_ = rp.shipper.Close()
	<-rp.served
}

// follower is an attached replica and the goroutine running it.
type follower struct {
	*xmldyn.Follower
	dir string
	ran chan error
}

// attach opens a follower on a fresh directory and starts its session
// loop against the shipper's socket.
func (w *world) attach() (*follower, error) {
	return w.attachWith(func(conn net.Conn) net.Conn { return conn })
}

// attachWith is attach with every connection the follower dials passed
// through wrap (the traced run counts bytes there).
func (w *world) attachWith(wrap func(net.Conn) net.Conn) (*follower, error) {
	dir, err := os.MkdirTemp(w.base, "follower-")
	if err != nil {
		return nil, err
	}
	sock := w.repl.sock
	f, err := xmldyn.OpenFollower(dir, xmldyn.FollowerOptions{
		Store: xmldyn.DurableOptions{Sync: wal.SyncAsync},
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("unix", sock)
			if err != nil {
				return nil, err
			}
			return wrap(conn), nil
		},
		ReconnectDelay: time.Millisecond,
		AckEvery:       8,
	})
	if err != nil {
		return nil, err
	}
	fo := &follower{Follower: f, dir: dir, ran: make(chan error, 1)}
	go func() { fo.ran <- f.Run() }()
	return fo, nil
}

// stop closes the follower, waits for its session loop and removes its
// directory.
func (f *follower) stop() error {
	err := f.Close()
	if rerr := <-f.ran; err == nil {
		err = rerr
	}
	os.RemoveAll(f.dir)
	return err
}

// awaitCaughtUp blocks until the follower has applied every byte the
// quiescent leader has appended and knows it (Lag 0).
func (w *world) awaitCaughtUp(f *follower) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		end, ok := w.leader.EndPosition()
		if !ok {
			return fmt.Errorf("leader closed while a follower caught up")
		}
		if f.Position() == end && f.Lag() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at %v, lag %d, leader end %v", f.Position(), f.Lag(), end)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// burst commits n events with the follower attached and then drains
// it; it returns the commit latencies and the time from the first
// commit to the follower having applied the last.
func (w *world) burst(f *follower, n int) (lat samples, replicated time.Duration, err error) {
	t0 := time.Now()
	if lat, err = w.commitN(0, n); err != nil {
		return lat, 0, err
	}
	err = w.awaitCaughtUp(f)
	return lat, time.Since(t0), err
}

// coldAttach times a fresh follower from OpenFollower to caught up,
// checks it against the leader and stops it.
func (w *world) coldAttach() (time.Duration, error) {
	t0 := time.Now()
	f, err := w.attach()
	if err != nil {
		return 0, err
	}
	err = w.awaitCaughtUp(f)
	took := time.Since(t0)
	if err == nil {
		err = w.sameAs(f)
	}
	if serr := f.stop(); err == nil {
		err = serr
	}
	return took, err
}

// --- state comparison ----------------------------------------------------------

// reader is the read surface a leader, a recovered leader and a
// follower share.
type reader interface {
	Snapshot(names ...string) (*xmldyn.RepoSnapshot, error)
}

// serialize pins every document and returns its XML by name.
func serialize(r reader) (map[string]string, error) {
	snap, err := r.Snapshot()
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	out := make(map[string]string)
	for _, name := range snap.Names() {
		doc, err := snap.Document(name)
		if err != nil {
			return nil, err
		}
		out[name] = doc.XML()
	}
	return out, nil
}

// sameDocs reports the first difference between two serialized
// repositories, or "".
func sameDocs(want, got map[string]string) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d documents, want %d", len(got), len(want))
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if g, ok := got[name]; !ok {
			return fmt.Sprintf("document %q is missing", name)
		} else if g != want[name] {
			return fmt.Sprintf("document %q differs (%d bytes, want %d)", name, len(g), len(want[name]))
		}
	}
	return ""
}

// sameAs checks that a caught-up follower holds the quiescent leader's
// documents.
func (w *world) sameAs(f *follower) error {
	want, err := serialize(w.leader)
	if err != nil {
		return err
	}
	got, err := serialize(f)
	if err != nil {
		return err
	}
	if diff := sameDocs(want, got); diff != "" {
		return fmt.Errorf("follower differs from leader: %s", diff)
	}
	return nil
}

// recoveredDiff compares a recovered repository with the serialized
// leader it was copied from: every acknowledged commit must be
// readable from the copied bytes alone.
func recoveredDiff(rec reader, want map[string]string) string {
	got, err := serialize(rec)
	if err != nil {
		return err.Error()
	}
	return sameDocs(want, got)
}

// crashRestarts copies the open leader's directory as a crash at its
// current log end would leave it, recovers the copy n times (timing
// NewDurableRepository: a restart is over when the repository serves
// again) and checks the first recovery against the live leader
// document by document. It also returns bytes on disk per byte of
// serialized XML.
func (w *world) crashRestarts(n int, r *result) (samples, float64, error) {
	want, err := serialize(w.leader)
	if err != nil {
		return nil, 0, err
	}
	end, ok := w.leader.EndPosition()
	if !ok {
		return nil, 0, fmt.Errorf("leader is closed")
	}
	copyDir := filepath.Join(w.base, "crash-copy")
	if err := crashCopy(w.dir, copyDir, end); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(copyDir)
	onDisk, err := dirBytes(copyDir)
	if err != nil {
		return nil, 0, err
	}
	var userBytes int
	for _, xml := range want {
		userBytes += len(xml)
	}
	var times samples
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		rec, err := xmldyn.NewDurableRepository(copyDir, w.c.durableOptions())
		if err != nil {
			return times, 0, fmt.Errorf("recover crash copy: %w", err)
		}
		times = append(times, time.Since(t0))
		if i == 0 {
			if diff := recoveredDiff(rec, want); diff != "" {
				r.fail("recovered state: " + diff)
			}
		}
		if err := rec.Close(); err != nil {
			return times, 0, err
		}
	}
	return times, ratio(float64(onDisk), float64(userBytes)), nil
}

// --- the untraced run ----------------------------------------------------------

// runUntraced is one untraced run of a workload: set-up (nine times;
// setup_s is the sum of its pieces' fastest times), the workload's
// measured stage for -seconds, then the checks, the stored-bytes figure
// and the label size on the state the stage left. Every end-to-end
// metric comes out of it.
func runUntraced(c config, o runOpts) (*result, error) {
	r := newResult(c, o.Seed, false)
	if c.Stage == stageStorm {
		return r, untracedStorm(c, o, r)
	}
	base, err := os.MkdirTemp(o.OutDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	w, err := setupTimed(c, o.Seed, base, r)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.measure(o.measure(), r); err != nil {
		return nil, fmt.Errorf("measured stage: %w", err)
	}
	if err := w.finish(r); err != nil {
		return nil, fmt.Errorf("final checks: %w", err)
	}
	return r, nil
}

// measure runs the workload's measured stage for d.
func (w *world) measure(d time.Duration, r *result) error {
	runtime.GC()
	switch w.c.Stage {
	case stageRestarts:
		return w.measureRestarts(d, r)
	case stageReplicate:
		return w.measureReplication(d, r)
	default:
		w.measureLoop(d, r)
		return nil
	}
}

// measureLoop is the measured stage of the commit and read workloads:
// every client runs its own stream in a closed loop. The operation is
// the commit, or the read beside a trickle of commits.
func (w *world) measureLoop(d time.Duration, r *result) {
	m0 := markMem()
	st := w.closedLoop(w.clients, d)
	m1 := markMem()
	r.Attempted += int64(st.attempted())
	r.Failed += int64(st.failed)
	if st.firstErr != nil {
		r.fail("operation failed: " + st.firstErr.Error())
	}
	r.Counts["commits"] = int64(len(st.commit.lat))
	if w.c.Stage == stageReads {
		reads := append(append(samples{}, st.query.lat...), st.snap.lat...)
		rates := st.rates(&st.query, &st.snap)
		r.setAllocs(m0, m1, len(reads))
		r.detail("ops_per_s", rates.median(), len(rates))
		r.detail("op_p50_us", us(reads.quantile(0.5)), len(reads))
		r.detail("reads_per_s", rates.median(), len(rates))
		r.detail("query_p50_us", us(st.query.lat.quantile(0.5)), len(st.query.lat))
		r.detail("snapshot_read_p50_us", us(st.snap.lat.quantile(0.5)), len(st.snap.lat))
		r.detail("commit_p50_us", us(st.commit.lat.quantile(0.5)), len(st.commit.lat))
		r.Counts["reads"] = int64(len(reads))
		return
	}
	rates := st.rates(&st.commit)
	r.setAllocs(m0, m1, len(st.commit.lat))
	r.detail("ops_per_s", rates.median(), len(rates))
	r.detail("op_p50_us", us(st.commit.lat.quantile(0.5)), len(st.commit.lat))
	r.detail("commits_per_s", rates.median(), len(rates))
	r.detail("commit_p50_us", us(st.commit.lat.quantile(0.5)), len(st.commit.lat))
	r.tail("commit_p99_us", st.commit.lat, 0.99)
}

// measureRestarts is the measured stage of ckpt_restart, cycles of
// {CkptCommits commits, a timed Checkpoint, RestartCommits commits, a
// crash copy, Restarts timed recoveries of it} from one client. The
// operation is the recovery; a cycle's rate is its recoveries over the
// time they took, and the median cycle is reported.
func (w *world) measureRestarts(d time.Duration, r *result) error {
	var ckpts, restarts samples
	var rates, diskRatios floats
	m0 := markMem()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		if _, err := w.commitN(0, w.c.CkptCommits); err != nil {
			return err
		}
		t0 := time.Now()
		if err := w.leader.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		ckpts = append(ckpts, time.Since(t0))
		if _, err := w.commitN(0, w.c.RestartCommits); err != nil {
			return err
		}
		times, diskRatio, err := w.crashRestarts(w.c.Restarts, r)
		if err != nil {
			return err
		}
		restarts = append(restarts, times...)
		rates = append(rates, perSecond(len(times), times.sum()))
		diskRatios = append(diskRatios, diskRatio)
		r.Attempted += int64(w.c.CkptCommits + 1 + w.c.RestartCommits + len(times))
	}
	r.setAllocs(m0, markMem(), len(restarts))
	r.detail("ops_per_s", rates.median(), len(rates))
	r.detail("op_p50_us", us(restarts.quantile(0.5)), len(restarts))
	r.detail("checkpoint_ms_p50", ms(ckpts.quantile(0.5)), len(ckpts))
	r.detail("recover_ms_p50", ms(restarts.quantile(0.5)), len(restarts))
	r.detail("disk_bytes_per_user_byte", diskRatios.median(), len(diskRatios))
	r.Counts["cycles"] = int64(len(ckpts))
	return nil
}

// measureReplication is the measured stage of replicate: one writer
// commits bursts with a follower attached, each burst drained until
// the follower has applied it. The operation is the replicated commit:
// its rate runs from a burst's first commit to the follower having
// applied its last (the median burst is reported), its latency is the
// leader's acknowledgement. Cold attaches to the finished history
// follow.
func (w *world) measureReplication(d time.Duration, r *result) error {
	if err := w.startShipper(); err != nil {
		return err
	}
	live, err := w.attach()
	if err != nil {
		return err
	}
	if err := w.awaitCaughtUp(live); err != nil {
		live.stop()
		return err
	}
	var commits samples
	var rates floats
	m0 := markMem()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		lat, took, err := w.burst(live, w.c.BurstCommits)
		if err != nil {
			live.stop()
			return err
		}
		commits = append(commits, lat...)
		rates = append(rates, perSecond(len(lat), took))
	}
	r.setAllocs(m0, markMem(), len(commits))
	err = w.sameAs(live)
	if serr := live.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	// A cold attach is a bootstrap from a fresh checkpoint plus the
	// backfill of one burst, whatever the measured stage appended.
	if err := w.leader.Checkpoint(); err != nil {
		return err
	}
	if _, err := w.commitN(0, w.c.BurstCommits); err != nil {
		return err
	}
	var attaches samples
	for i := 0; i < w.c.ColdAttaches; i++ {
		took, err := w.coldAttach()
		if err != nil {
			return fmt.Errorf("cold attach: %w", err)
		}
		attaches = append(attaches, took)
	}
	r.Attempted += int64(len(commits) + 1 + w.c.BurstCommits + len(attaches))
	r.detail("ops_per_s", rates.median(), len(rates))
	r.detail("op_p50_us", us(commits.quantile(0.5)), len(commits))
	r.detail("replicated_commits_per_s", rates.median(), len(rates))
	r.detail("commits_per_s", perSecond(len(commits), commits.sum()), len(commits))
	r.detail("commit_p50_us", us(commits.quantile(0.5)), len(commits))
	r.detail("cold_attach_ms_p50", ms(attaches.quantile(0.5)), len(attaches))
	r.Counts["bursts"] = int64(len(rates))
	return nil
}

// finish runs the checks every repository workload ends with — Verify
// on every document, one crash copy recovered and compared with the
// leader — and takes stored_bytes_per_user_byte from that copy: the
// snapshot files of a fresh checkpoint plus CkptCommits commits of
// live log, over the serialized XML. label_bits_per_node is taken from
// the same state. Every sawtooth is settled first and the commits go
// round the documents in order, so that neither figure depends on how
// far the stage got; what is left of the seed in them is the history
// the labels carry.
func (w *world) finish(r *result) error {
	for _, name := range w.names {
		if err := w.leader.Verify(name); err != nil {
			r.fail("verify " + name + ": " + err.Error())
		}
	}
	settled, err := w.settle()
	if err != nil {
		return err
	}
	if err := w.leader.Checkpoint(); err != nil {
		return err
	}
	for i := 0; i < w.c.CkptCommits; i++ {
		if err := w.fixedCommit(i%len(w.names), uint64(i)+1); err != nil {
			return err
		}
	}
	_, stored, err := w.crashRestarts(1, r)
	if err != nil {
		return err
	}
	var bits, nodes int
	for _, name := range w.names {
		if err := w.leader.View(name, func(s *update.Session) error {
			bits += labeling.TotalBits(s.Labeling(), s.Document())
			nodes += s.Document().LabelledCount()
			return nil
		}); err != nil {
			return err
		}
	}
	r.Attempted += int64(settled + 1 + w.c.CkptCommits + 1)
	r.set(endToEnd, "stored_bytes_per_user_byte", stored, 1)
	r.set(endToEnd, "label_bits_per_node", ratio(float64(bits), float64(nodes)), nodes)
	return nil
}
