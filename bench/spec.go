package main

import (
	"xmldyn/internal/wal"
	"xmldyn/internal/workload"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json at
// the repository root repeats these declarations for the driver;
// bench_test.go fails if the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

// specFile is BENCHMARK.json.
type specFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// benchmarkSpec is BENCHMARK.json as the declarations in this file
// have it; `go run ./bench -spec` prints it.
func benchmarkSpec() specFile {
	f := specFile{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, c := range workloads {
		f.Workloads = append(f.Workloads, specWorkload{c.Name, c.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		f.EndToEnd = append(f.EndToEnd, specMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, specMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return f
}

// endToEnd are the bounded metrics. The driver wants every one of them
// from every workload and holds each, on each workload, to its bound
// across seeds and across time. On this sandbox only counts survive
// that: every timing — a commit, a query, a pass of the label storm —
// wanders by 10 to 25 % between quiet minutes and loses a third again
// for tens of seconds at a time when a neighbour wakes up (README.md,
// "Why the bounded metrics are counts"). So the bounded metrics are
// the costs of an operation that can be counted: what it allocates,
// what it leaves on disk, how long its labels are. The one timing is
// setup_s, which the driver requires. What a workload's operation is,
// is the workload's Op.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_bytes_per_op", "bytes", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.10},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.10},
	{"label_bits_per_node", "bits", "lower", 0.10},
}

// details are the timings of an untraced run: the operation's rate and
// median latency, and the issue's end-to-end names the workload owns,
// each with its sample count. They go to the JSON document and the
// table, not to the driver's line. The traced run reports the first
// two again as e2e.ops_per_s and e2e.op_p50_us, so that the driver
// keeps a record of them too.
var details = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_us", Unit: "us", Better: "lower"},
	{Name: "commits_per_s", Unit: "1/s", Better: "higher"},
	{Name: "commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "commit_p99_us", Unit: "us", Better: "lower"},
	{Name: "reads_per_s", Unit: "1/s", Better: "higher"},
	{Name: "query_p50_us", Unit: "us", Better: "lower"},
	{Name: "snapshot_read_p50_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recover_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "replicated_commits_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cold_attach_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "label_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "relabels_per_op", Unit: "ratio", Better: "lower"},
}

// stormSchemes are the six labelling schemes of the label storm and
// of the per-scheme layer metrics.
var stormSchemes = []string{"deweyid", "ordpath", "qed", "cdqs", "cdbs", "vector"}

// perLayer lists the layer metrics a traced run reports, layer =
// module name. A layer a workload never enters reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	out := []metricDef{
		hi("e2e.ops_per_s", "1/s"),
		lo("e2e.op_p50_us", "us"),
		lo("repo.batch_self_us", "us"),
		lo("repo.multibatch_us_p50", "us"),
		lo("repo.contention_ratio", "ratio"),
		lo("repo.commit_p99_us", "us"),
		hi("repo.scaling", "ratio"),
		lo("repo.snapshot_pin_us_p50", "us"),
		lo("repo.snapshot_pin_cold_us_p50", "us"),
		lo("repo.query_p99_us", "us"),
		lo("repo.allocs_per_commit", "count"),
		lo("repo.alloc_bytes_per_commit", "bytes"),
		lo("repo.version_live_roots_max", "count"),
		lo("repo.version_retained_max", "count"),
		lo("repo.checkpoint_ms_p50", "ms"),
		lo("repo.checkpoint_dirty_docs_mean", "count"),
		lo("repo.checkpoint_bytes_written", "bytes"),
		lo("repo.recover_ms_p50", "ms"),
		lo("repo.recover_snapshot_ms", "ms"),
		lo("repo.recover_replay_ms", "ms"),
		lo("update.encode_ops_us", "us"),
		lo("update.encode_bytes_per_op", "bytes"),
		lo("update.apply_us", "us"),
		lo("update.verify_us", "us"),
		lo("update.decode_ops_us", "us"),
		lo("update.encode_doctree_us_per_knode", "us"),
		lo("update.decode_doctree_us_per_knode", "us"),
	}
	for _, s := range stormSchemes {
		out = append(out,
			lo("schemes."+s+".insert_ns", "ns"),
			lo("schemes."+s+".bits_per_node", "bits"),
			lo("schemes."+s+".relabels", "count"),
			lo("schemes."+s+".overflows", "count"))
	}
	return append(out,
		lo("schemes.compare_ns", "ns"),
		lo("xmltree.publish_version_us", "us"),
		lo("xmltree.open_version_us", "us"),
		lo("xmltree.parse_us_per_knode", "us"),
		lo("xpath.query_us_per_knode", "us"),
		lo("wal.append_us.percommit", "us"),
		lo("wal.append_us.grouped", "us"),
		lo("wal.append_us.async", "us"),
		lo("wal.append_grouped_us.nclients", "us"),
		hi("wal.group_factor", "ratio"),
		lo("wal.bytes_per_commit", "bytes"),
		lo("wal.frame_overhead_bytes", "bytes"),
		lo("wal.replay_us_per_record", "us"),
		lo("wal.rotations", "count"),
		lo("wal.tail_next_us", "us"),
		lo("store.marshal_docsnap_us_per_knode", "us"),
		lo("store.unmarshal_docsnap_us_per_knode", "us"),
		lo("store.write_file_atomic_us", "us"),
		lo("store.manifest_write_us", "us"),
		lo("store.snap_bytes_per_node", "bytes"),
		lo("replica.catchup_ms_p50", "ms"),
		lo("replica.lag_bytes_max", "bytes"),
		lo("replica.bootstrap_ms", "ms"),
		lo("replica.cold_attach_ms_p50", "ms"),
		hi("replica.backfill_mb_per_s", "MB/s"),
		lo("replica.wire_bytes_per_wal_byte", "ratio"),
		lo("replica.follower_apply_us_per_record", "us"),
		hi("trace.coverage", "ratio"),
		lo("trace.overhead", "ratio"))
}

// stage names what a workload's measured stage does, and so what its
// operation is.
type stage int

const (
	stageCommits   stage = iota // op: one commit, from every client
	stageReads                  // op: one read (lock-held query or snapshot read) beside a trickle of commits
	stageRestarts               // op: one recovery of a crash copy, between checkpoint cycles
	stageReplicate              // op: one commit applied by a live follower
	stageStorm                  // op: one update through a bare labelled session
)

// config is one workload: a corpus, a commit shape, a measured stage
// and the fixed sizes around it. The sizes are frozen constants
// (README.md records how they were chosen); the measured stage itself
// runs for -seconds.
type config struct {
	Name string
	Why  string
	Op   string // what ops_per_s and op_p50_us count, for the table and the document

	Stage stage

	// Corpus and leader.
	Profile      workload.Profile
	Schemes      []string // assigned to documents round-robin
	Skew         float64  // Zipf exponent of document popularity, 0 = uniform
	Sync         wal.SyncPolicy
	SegmentBytes int64
	Clients      int // goroutines of the measured stage; 0 = min(nproc, 4)

	// Commit shape.
	BatchOps   int     // ops per single-document commit
	Wide       bool    // positional inserts plus content ops instead of the append/trim sawtooth
	MultiShare float64 // share of commits that are two-document MultiBatches

	// Set-up work.
	Warmup      int // commits before anything is measured
	History     int // extra set-up commits, checkpointed every HistoryCkpt
	HistoryCkpt int

	// Fixed work per cycle, burst or probe. The restart stage and the
	// replicate stage cycle through it for -seconds; every repository
	// workload uses CkptCommits once for its stored-bytes figure, and
	// the traced run uses all of it on every corpus.
	CkptCommits    int // commits between two timed checkpoints
	RestartCommits int // commits between the last checkpoint and the crash copy
	Restarts       int // recoveries of one crash copy
	BurstCommits   int // commits of one replicated burst
	ColdAttaches   int // fresh followers attached to the finished history

	// Label storm.
	StormNodes int // nodes per document
	StormOps   int // ops per scheme and stream kind
}

// workloads are the six named workloads. Each exists to put one group
// of layers on the critical path; Why says which.
var workloads = []config{
	{
		Name:  "commit_hot",
		Why:   "Durable grouped-sync commits on 8 hot Zipf documents: fsync and the per-document write lock dominate, update and schemes do little.",
		Op:    "commit",
		Stage: stageCommits, Profile: workload.Profile{Docs: 8, Nodes: 96, Shape: workload.ShapeMixed}, Schemes: []string{"qed"},
		Skew: 1.2, Sync: wal.SyncGrouped, BatchOps: 8, Warmup: 1000,
		CkptCommits: 60, RestartCommits: 150, Restarts: 2, BurstCommits: 300,
	},
	{
		Name:  "commit_wide",
		Why:   "Async-sync 16-op commits over 256 tiny documents and four schemes: CPU-bound in update, schemes and xmltree, the log only buffers.",
		Op:    "commit",
		Stage: stageCommits, Profile: workload.ManyTinyDocs(), Schemes: []string{"qed", "ordpath", "deweyid", "cdbs"},
		Skew: 0, Sync: wal.SyncAsync, BatchOps: 16, Wide: true, MultiShare: 0.10, Warmup: 2000,
		CkptCommits: 64, RestartCommits: 400, Restarts: 2, BurstCommits: 1000,
	},
	{
		Name:  "read_heavy",
		Why:   "ReadMostly mix on 4 documents of 20000 nodes: xpath, persistent versions and version pinning beside a trickle of writes, the log idle.",
		Op:    "read",
		Stage: stageReads, Profile: workload.FewHugeDocs(), Schemes: []string{"qed"},
		Skew: 0, Sync: wal.SyncAsync, BatchOps: 8, Warmup: 8,
		CkptCommits: 2, RestartCommits: 3, Restarts: 1, BurstCommits: 4,
	},
	{
		Name:  "ckpt_restart",
		Why:   "One per-commit-sync client cycling through commits, a checkpoint, a crash copy and recoveries of it on 64 documents: store, wal replay and the update decode path.",
		Op:    "recovery",
		Stage: stageRestarts, Profile: workload.Profile{Docs: 64, Nodes: 96, Shape: workload.ShapeMixed}, Schemes: []string{"qed"},
		Skew: 1.2, Sync: wal.SyncPerCommit, SegmentBytes: 64 << 10, Clients: 1, BatchOps: 8,
		Warmup: 200, History: 1500, HistoryCkpt: 500,
		CkptCommits: 200, RestartCommits: 200, Restarts: 8, BurstCommits: 200,
	},
	{
		Name:  "replicate",
		Why:   "One grouped-sync writer with a live follower on a socket, bursts drained to lag 0, then cold attaches: replica, wal tailing and the follower apply path.",
		Op:    "replicated commit",
		Stage: stageReplicate, Profile: workload.Profile{Docs: 16, Nodes: 96, Shape: workload.ShapeMixed}, Schemes: []string{"qed"},
		Skew: 0, Sync: wal.SyncGrouped, Clients: 1, BatchOps: 8, Warmup: 500,
		CkptCommits: 60, RestartCommits: 150, Restarts: 2, BurstCommits: 800, ColdAttaches: 7,
	},
	{
		Name:  "label_storm",
		Why:   "Skewed, random and churn update streams through six labelling schemes on bare sessions: label growth and relabelling, the paper's own axis; no repository at all.",
		Op:    "update op",
		Stage: stageStorm, StormNodes: 1000, StormOps: 2000,
	},
}

func workloadByName(name string) (config, bool) {
	for _, c := range workloads {
		if c.Name == name {
			return c, true
		}
	}
	return config{}, false
}

// scaled shrinks a workload for smoke tests: corpus, fixed work and
// the storm all scale by f (never below the smallest size that still
// exercises the stage).
func (c config) scaled(f float64) config {
	if f >= 1 {
		return c
	}
	sc := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		if m := int(float64(n) * f); m > floor {
			return m
		}
		return floor
	}
	c.Profile.Nodes = sc(c.Profile.Nodes, 32)
	c.Profile.Docs = sc(c.Profile.Docs, min(c.Profile.Docs, 4))
	c.Warmup, c.History = sc(c.Warmup, 4), sc(c.History, 8)
	c.HistoryCkpt = sc(c.HistoryCkpt, 4)
	c.CkptCommits, c.RestartCommits, c.BurstCommits = sc(c.CkptCommits, 4), sc(c.RestartCommits, 4), sc(c.BurstCommits, 8)
	c.Restarts, c.ColdAttaches = sc(c.Restarts, 1), sc(c.ColdAttaches, 1)
	c.StormNodes, c.StormOps = sc(c.StormNodes, 60), sc(c.StormOps, 40)
	return c
}
