// C16: follower lag vs leader commit rate across fsync policies. The
// WAL-shipping follower (internal/replica, docs/REPLICATION.md) tails
// the leader's log concurrently with the commit burst, so its apply
// path should keep pace with the leader's maximum commit rate: the
// hypothesis (docs/EXPERIMENTS.md H-C16) is that after a burst of
// commits the follower drains to Lag = 0 within the burst's own wall
// time plus a fixed latency floor (c16Floor: the leader's async
// flush interval, a couple of heartbeat periods, transport slack) —
// i.e. the follower accumulates NO burst-proportional backlog, under
// every fsync policy. A follower whose apply path were slower than
// the leader's commit path (say, re-serialising documents per
// record, or fsyncing more often than the leader) would refute this:
// backlog would grow with the burst and the drain would outlast
// burst + floor. Peak lag in stream bytes is reported per policy —
// the staleness bound an operator would actually observe.

package experiments

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"xmldyn/internal/harness"
	"xmldyn/internal/replica"
	"xmldyn/internal/repo"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// c16Floor is the fixed drain-latency allowance: the part of the
// post-burst drain that does not scale with burst size — the async
// leader's FlushInterval (records ship only once durable), up to two
// 2ms heartbeat periods for the final staleness target to arrive,
// and in-process transport slack. Only drain beyond burst + floor
// indicates burst-proportional backlog.
const c16Floor = 5 * time.Millisecond

// c16Run is one policy's measurement.
type c16Run struct {
	rec         *harness.Recorder
	burst       time.Duration
	catchup     time.Duration
	peakLag     uint64        // max live-tail Lag during the burst
	coldLag     uint64        // a fresh follower's initial Lag target
	coldCatchup time.Duration // fresh follower's attach-to-Lag-0 time
}

// C16ReplicationLag runs, for each fsync policy, a leader with an
// attached live follower (in-process pipe transport), bursts
// `commits` batches of `batchSize` appends spread over docsN
// documents, and measures the burst wall time, the peak follower lag
// during it, and the drain time from the last commit to Lag = 0. The
// convergence rule re-runs the sweep until the worst normalised
// drain — catchup / (burst + c16Floor), max over policies —
// stabilises.
func C16ReplicationLag(docsN, commits, batchSize int, rule harness.ConvergeRule) (Table, error) {
	t := Table{
		ID:      "C16",
		Claim:   "the follower's apply path keeps pace with the leader's peak commit rate under every fsync policy (H-C16, docs/EXPERIMENTS.md)",
		Headers: []string{"policy", "commits", "commit_p50_us", "commit_p99_us", "burst_ms", "live_peak_lag", "catchup_ms", "norm_drain", "cold_lag_bytes", "cold_catchup_ms"},
	}
	policies := []struct {
		name string
		opts repo.DurableOptions
	}{
		{"per-commit", repo.DurableOptions{Sync: wal.SyncPerCommit}},
		{"grouped", repo.DurableOptions{Sync: wal.SyncGrouped, GroupWindow: 200 * time.Microsecond}},
		{"async", repo.DurableOptions{Sync: wal.SyncAsync, FlushInterval: time.Millisecond}},
	}
	var last map[string]*c16Run
	res, err := rule.Run(func(round int) (float64, error) {
		runs := make(map[string]*c16Run, len(policies))
		worst := 0.0
		for _, pol := range policies {
			run, err := runC16(pol.opts, docsN, commits, batchSize)
			if err != nil {
				return 0, fmt.Errorf("policy %s: %w", pol.name, err)
			}
			runs[pol.name] = run
			if r := ratioC16(run); r > worst {
				worst = r
			}
		}
		last = runs
		return worst, nil
	})
	if err != nil {
		return t, err
	}
	for _, pol := range policies {
		run := last[pol.name]
		bt, _ := run.rec.Stats(workload.OpBatch.String())
		t.Rows = append(t.Rows, []string{
			pol.name,
			fmt.Sprintf("%d", commits),
			us(bt.P50), us(bt.P99),
			fmt.Sprintf("%.2f", float64(run.burst.Microseconds())/1000),
			fmt.Sprintf("%d", run.peakLag),
			fmt.Sprintf("%.2f", float64(run.catchup.Microseconds())/1000),
			fmt.Sprintf("%.3f", ratioC16(run)),
			fmt.Sprintf("%d", run.coldLag),
			fmt.Sprintf("%.2f", float64(run.coldCatchup.Microseconds())/1000),
		})
	}
	verdict := "supported"
	if res.Mean >= 1 {
		verdict = "refuted"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("hypothesis H-C16: drain-to-Lag-0 after the burst takes < burst + %v (fixed latency floor) under every policy — no burst-proportional backlog; measured worst normalised drain %.3f → %s",
			c16Floor, res.Mean, verdict),
		fmt.Sprintf("convergence: %d rounds, trailing spread %.2f (tolerance %.2f), converged=%v",
			res.Rounds, res.Spread, rule.Tolerance, res.Converged),
		fmt.Sprintf("each burst: %d batches × %d appends over %d docs; follower tails live over an in-process pipe, AckEvery 8", commits, batchSize, docsN),
		"live_peak_lag = max Follower.Lag during the burst; ~0 is by design — the staleness target travels in-order after the bytes it covers (docs/REPLICATION.md §4)",
		"cold_lag_bytes / cold_catchup_ms = a follower attached AFTER the burst: its initial Lag target (the full stream distance, measured on its mirrored segments) and its attach-to-Lag-0 time")
	return t, nil
}

// ratioC16 is the normalised drain — catchup / (burst + c16Floor) —
// the falsifiable quantity: values ≥ 1 mean the drain outlasted the
// burst by more than the fixed latency floor, i.e. backlog
// accumulated in proportion to the burst.
func ratioC16(r *c16Run) float64 {
	return float64(r.catchup) / float64(r.burst+c16Floor)
}

// runC16 executes one policy: leader + shipper + live follower (same
// fsync policy on both sides), a timed commit burst with a concurrent
// lag sampler, then the timed drain to Lag = 0.
func runC16(opts repo.DurableOptions, docsN, commits, batchSize int) (*c16Run, error) {
	ldir, err := os.MkdirTemp("", "xmldyn-c16-leader-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ldir)
	fdir, err := os.MkdirTemp("", "xmldyn-c16-follower-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(fdir)

	opts.SegmentBytes = 256 << 10
	opts.AutoCheckpointBytes = -1
	leader, err := repo.OpenDurable(ldir, opts)
	if err != nil {
		return nil, err
	}
	defer leader.Close()
	name := func(i int) string { return fmt.Sprintf("doc%03d", i) }
	for i := 0; i < docsN; i++ {
		doc, err := xmltree.ParseString("<feed><seed/></feed>")
		if err != nil {
			return nil, err
		}
		if err := leader.Open(name(i), doc, "qed"); err != nil {
			return nil, err
		}
	}

	shipper := replica.NewShipper(leader, replica.ShipperOptions{Heartbeat: 2 * time.Millisecond})
	defer shipper.Close()
	f, err := replica.OpenFollower(fdir, replica.FollowerOptions{
		Store:          repo.DurableOptions{Sync: opts.Sync, GroupWindow: opts.GroupWindow, FlushInterval: opts.FlushInterval},
		ReconnectDelay: time.Millisecond,
		AckEvery:       8,
		Dial: func() (net.Conn, error) {
			client, server := net.Pipe()
			go func() { _ = shipper.HandleConn(server) }()
			return client, nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	go func() { _ = f.Run() }()

	caughtUp := func() bool {
		end, ok := leader.EndPosition()
		return ok && f.Position() == end && f.Lag() == 0
	}
	await := func(what string, timeout time.Duration) error {
		deadline := time.Now().Add(timeout)
		for !caughtUp() {
			if time.Now().After(deadline) {
				return fmt.Errorf("C16: %s: follower stuck at lag %d (pos %v)", what, f.Lag(), f.Position())
			}
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}
	if err := await("initial catch-up", 30*time.Second); err != nil {
		return nil, err
	}

	// Lag sampler: peak staleness during the burst.
	var peak atomic.Uint64
	stopSample := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		for {
			select {
			case <-stopSample:
				return
			default:
			}
			if l := f.Lag(); l > peak.Load() {
				peak.Store(l)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	rec := harness.NewRecorder()
	burstStart := time.Now()
	for c := 0; c < commits; c++ {
		target := name(c % docsN)
		err := rec.Time(workload.OpBatch.String(), func() error {
			_, berr := leader.Batch(target, func(doc *xmltree.Document, b *update.Batch) error {
				root := doc.Root()
				for i := 0; i < batchSize; i++ {
					b.AppendChild(root, "entry")
				}
				if kids := root.Children(); len(kids) > 256 {
					for i := 0; i < batchSize; i++ {
						b.Delete(kids[i])
					}
				}
				return nil
			})
			return berr
		})
		if err != nil {
			return nil, fmt.Errorf("commit %d: %w", c, err)
		}
	}
	burst := time.Since(burstStart)

	drainStart := time.Now()
	if err := await("post-burst drain", 60*time.Second); err != nil {
		return nil, err
	}
	catchup := time.Since(drainStart)
	close(stopSample)
	<-sampleDone

	// Cold attach: a fresh follower joining after the burst sees the
	// whole stream as its initial Lag target and drains it — the
	// catch-up protocol of docs/REPLICATION.md §3 end to end.
	cdir, err := os.MkdirTemp("", "xmldyn-c16-cold-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cdir)
	cold, err := replica.OpenFollower(cdir, replica.FollowerOptions{
		Store:          repo.DurableOptions{Sync: opts.Sync, GroupWindow: opts.GroupWindow, FlushInterval: opts.FlushInterval},
		ReconnectDelay: time.Millisecond,
		AckEvery:       8,
		Dial: func() (net.Conn, error) {
			client, server := net.Pipe()
			go func() { _ = shipper.HandleConn(server) }()
			return client, nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer cold.Close()
	coldStart := time.Now()
	go func() { _ = cold.Run() }()
	coldUp := func() bool {
		end, ok := leader.EndPosition()
		return ok && cold.Position() == end && cold.Lag() == 0
	}
	coldDeadline := time.Now().Add(60 * time.Second)
	for !coldUp() {
		if time.Now().After(coldDeadline) {
			return nil, fmt.Errorf("C16: cold follower stuck at lag %d (pos %v)", cold.Lag(), cold.Position())
		}
		time.Sleep(200 * time.Microsecond)
	}
	coldCatchup := time.Since(coldStart)
	// The cold follower bootstrapped onto the leader's first live segment
	// and then mirrored every stream byte after that segment's header, so
	// its initial Lag target is the distance from there to where it stands
	// — read off its own segment files, not sampled from a Lag that may
	// rise and drain between two polls.
	first, _, _ := leader.SegmentRange()
	coldLag, err := streamDistance(cdir, wal.Position{Segment: first, Offset: int64(wal.HeaderSize)}, cold.Position())
	if err != nil {
		return nil, err
	}

	return &c16Run{
		rec: rec, burst: burst, catchup: catchup, peakLag: peak.Load(),
		coldLag: coldLag, coldCatchup: coldCatchup,
	}, nil
}

// streamDistance is the byte distance from start to end within the
// segment set of dir, in Follower.Lag's accounting: every byte of every
// segment between the two positions, segment headers included.
func streamDistance(dir string, start, end wal.Position) (uint64, error) {
	n := end.Offset - start.Offset
	for seg := start.Segment; seg < end.Segment; seg++ {
		st, err := os.Stat(filepath.Join(dir, wal.SegmentName(seg)))
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return uint64(n), nil
}
