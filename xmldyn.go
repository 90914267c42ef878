// Package xmldyn is a library of dynamic XML labelling schemes and
// update mechanisms, reproducing O'Connor & Roantree, "Desirable
// Properties for XML Update Mechanisms" (Updates in XML, EDBT 2010
// Workshops).
//
// The library implements every labelling scheme the paper surveys —
// containment schemes (XPath Accelerator, XRel, Sector, QRS) and prefix
// schemes (DeweyID, ORDPATH, DLN, LSDX, Com-D, ImprovedBinary, QED,
// CDBS, CDQS, Vector) plus the Prime and DDE schemes its conclusion
// queues up — together with the substrates they need: an XML tree model
// and parser, structural/content update mechanics with document-order
// maintenance, an encoding scheme (Definition 2), an XPath axis engine
// that evaluates relationships from labels alone, and the paper's §5
// evaluation framework with both the published Figure 7 matrix and a
// measured one derived from live probes.
//
// On top of the single-document session sits a concurrent repository
// layer (NewRepository): many named labelled documents behind sharded
// locks, queries running in parallel with per-document-serialized
// writers, batched update transactions (Session.Batch, ApplyBatch)
// that verify document order once per batch instead of once per op,
// atomic multi-document transactions (MultiBatch) that commit
// across several named documents or roll back across all of them,
// and MVCC snapshot reads (Repository.Snapshot → RepoSnapshot): every
// commit publishes a persistent path-copied version of the document —
// unchanged subtrees shared with the live tree, only the mutated
// spine copied — so a snapshot pins an immutable,
// transaction-consistent version of one or more documents in O(1)
// and serves every read from it with no lock held: slow readers never
// stall writers and a multi-document snapshot can never observe a
// MultiBatch half applied. With RepoOptions.RetainVersions set, the
// last N superseded versions of each document stay reachable and
// Repository.SnapshotAt time-travels to the state at an earlier
// commit stamp (docs/CONCURRENCY.md specifies the consistency model;
// RepoVersionStats exposes the version accounting). SaveRepository/RestoreRepository round-trip
// the whole repository through one checksummed container, and
// NewDurableRepository backs the same layer with a write-ahead log:
// committed batches survive a crash and replay to the identical
// state, with a multi-document transaction logged as one record so
// recovery is all-or-nothing too (docs/DURABILITY.md specifies the
// on-disk format and recovery protocol). NewShipper and OpenFollower
// add WAL-shipping read replicas on top of the durable layer: a
// leader streams its log to followers that serve the same lock-free
// MVCC snapshot reads with an explicit staleness bound
// (docs/REPLICATION.md specifies the protocol and guarantees).
//
// Quick start:
//
//	doc, _ := xmldyn.ParseString("<a><b/><c/></a>")
//	s, _ := xmldyn.Open(doc, "qed")
//	b := doc.FindElement("b")
//	n, _ := s.InsertAfter(b, "new")
//	fmt.Println(s.Labeling().Label(n)) // a QED label strictly between b and c
package xmldyn

import (
	"fmt"
	"io"
	"sort"

	"xmldyn/internal/core"
	"xmldyn/internal/encoding"
	"xmldyn/internal/figures"
	"xmldyn/internal/labeling"
	"xmldyn/internal/replica"
	"xmldyn/internal/repo"
	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/uql"
	"xmldyn/internal/wal"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// Core data model re-exports.
type (
	// Document is an XML document tree (paper §2.1).
	Document = xmltree.Document
	// Node is one tree node: element, attribute, text, comment or PI.
	Node = xmltree.Node
	// Kind identifies a node's type.
	Kind = xmltree.Kind
	// Labeling is a dynamic labelling scheme instance bound to a
	// document (paper Definition 1 plus update maintenance).
	Labeling = labeling.Interface
	// Label is a scheme-specific node label.
	Label = labeling.Label
	// LabelStats instruments a labeling: relabel counts are the
	// Persistent-Labels property made measurable.
	LabelStats = labeling.Stats
	// Session couples a document with a labeling and applies updates
	// (paper §3: structural and content updates).
	Session = update.Session
	// EncodedDocument is the Definition 2 encoding scheme over a
	// labelled document.
	EncodedDocument = encoding.Document
	// EncodingRow is one row of the Figure 2 table.
	EncodingRow = encoding.Row
	// Engine evaluates XPath axes and location paths.
	Engine = xpath.Engine
	// Axis is an XPath axis.
	Axis = xpath.Axis
	// Assessment is one row of the §5 evaluation matrix.
	Assessment = core.Assessment
	// Property is one of the framework's graded properties.
	Property = core.Property
	// Compliance is the F/P/N grade.
	Compliance = core.Compliance
	// ProbeConfig sizes the framework's measurement workloads.
	ProbeConfig = core.ProbeConfig
	// Report carries the raw measurements behind an Assessment.
	Report = core.Report
	// WorkloadSpec describes an update stream (§5.1 scenarios).
	WorkloadSpec = workload.Spec
	// WorkloadKind names an update stream shape (WorkloadRandom etc.).
	WorkloadKind = workload.Kind
)

// Node kinds.
const (
	KindDocument  = xmltree.KindDocument
	KindElement   = xmltree.KindElement
	KindAttribute = xmltree.KindAttribute
	KindText      = xmltree.KindText
	KindComment   = xmltree.KindComment
	KindProcInst  = xmltree.KindProcInst
)

// XPath axes.
const (
	AxisSelf             = xpath.AxisSelf
	AxisChild            = xpath.AxisChild
	AxisParent           = xpath.AxisParent
	AxisDescendant       = xpath.AxisDescendant
	AxisDescendantOrSelf = xpath.AxisDescendantOrSelf
	AxisAncestor         = xpath.AxisAncestor
	AxisAncestorOrSelf   = xpath.AxisAncestorOrSelf
	AxisFollowing        = xpath.AxisFollowing
	AxisPreceding        = xpath.AxisPreceding
	AxisFollowingSibling = xpath.AxisFollowingSibling
	AxisPrecedingSibling = xpath.AxisPrecedingSibling
	AxisAttribute        = xpath.AxisAttribute
)

// Workload shapes (§5.1).
const (
	WorkloadRandom     = workload.Random
	WorkloadUniform    = workload.Uniform
	WorkloadSkewed     = workload.Skewed
	WorkloadAppendOnly = workload.AppendOnly
	WorkloadChurn      = workload.Churn
)

// Framework properties (Figure 7 columns).
const (
	PersistentLabels = core.PersistentLabels
	XPathEvaluations = core.XPathEvaluations
	LevelEncoding    = core.LevelEncoding
	OverflowFree     = core.OverflowFree
	Orthogonal       = core.Orthogonal
	CompactEncoding  = core.CompactEncoding
	DivisionFree     = core.DivisionFree
	NonRecursiveInit = core.NonRecursiveInit
)

// Parse reads an XML document.
func Parse(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) { return xmltree.ParseString(s) }

// NewElement returns a detached element for subtree construction.
func NewElement(name string) *Node { return xmltree.NewElement(name) }

// NewText returns a detached text node.
func NewText(value string) *Node { return xmltree.NewText(value) }

// SampleBook returns the paper's Figure 1(a) sample document.
func SampleBook() *Document { return xmltree.SampleBook() }

// ExampleTree returns the ten-node tree of the paper's Figures 3-6.
func ExampleTree() *Document { return xmltree.ExampleTree() }

// Schemes lists every registered labelling scheme name, sorted.
func Schemes() []string {
	reg := core.Registry()
	out := make([]string, len(reg))
	for i, s := range reg {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// NewLabeling returns a fresh, unbound labeling for the named scheme.
func NewLabeling(scheme string) (Labeling, error) {
	s, ok := core.SchemeByName(scheme)
	if !ok {
		return nil, fmt.Errorf("xmldyn: unknown scheme %q (known: %v)", scheme, Schemes())
	}
	return s.Factory(), nil
}

// Open labels doc with the named scheme and returns an update session.
func Open(doc *Document, scheme string) (*Session, error) {
	lab, err := NewLabeling(scheme)
	if err != nil {
		return nil, err
	}
	return update.NewSession(doc, lab)
}

// OpenWith labels doc with a caller-supplied labeling.
func OpenWith(doc *Document, lab Labeling) (*Session, error) {
	return update.NewSession(doc, lab)
}

// Encode builds the Definition 2 encoding table over a session's
// labelled document.
func Encode(s *Session) *EncodedDocument {
	return encoding.Wrap(s.Document(), s.Labeling())
}

// Reconstruct rebuilds a document from encoding rows (Definition 2's
// reconstruction requirement).
func Reconstruct(rows []EncodingRow) (*Document, error) {
	return encoding.Reconstruct(rows)
}

// Save serialises a session's encoded document to the binary snapshot
// format of internal/store (scheme name, labels, encoding rows,
// checksum).
func Save(s *Session) ([]byte, error) {
	return store.Marshal(Encode(s))
}

// Snapshot is a decoded binary snapshot.
type Snapshot = store.Snapshot

// Load decodes a snapshot produced by Save.
func Load(data []byte) (*Snapshot, error) { return store.Unmarshal(data) }

// Restore rebuilds the document from a snapshot and reopens it under
// the snapshot's scheme.
func Restore(data []byte) (*Session, error) {
	snap, err := store.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	doc, err := snap.Rebuild()
	if err != nil {
		return nil, err
	}
	return Open(doc, snap.Scheme)
}

// Query evaluates a location path (see Engine.Query for the grammar)
// over a session's document using structural navigation.
func Query(s *Session, path string) ([]*Node, error) {
	return xpath.New(s.Document(), s.Labeling(), xpath.ModeStructural).Query(path)
}

// LabelQuery returns an engine that answers axes purely from label
// comparisons — the paper's "from the node label alone" XPath property.
// Axes the scheme cannot decide return xpath.ErrUnsupported.
func LabelQuery(s *Session) *Engine {
	return xpath.New(s.Document(), s.Labeling(), xpath.ModeLabelOnly)
}

// ErrAxisUnsupported is returned by label-only engines for axes the
// scheme's labels cannot decide.
var ErrAxisUnsupported = xpath.ErrUnsupported

// ApplyWorkload drives a session through one of the §5.1 update
// scenarios.
func ApplyWorkload(s *Session, spec WorkloadSpec) error {
	_, err := workload.Apply(s, spec)
	return err
}

// UpdateResult summarises an ApplyUpdates run.
type UpdateResult = uql.Result

// ApplyUpdates executes an XQuery-Update-Facility-style script against
// the session (see internal/uql for the grammar):
//
//	insert node <isbn>1</isbn> after //author;
//	replace value of node //title with "Homecoming";
//	delete node //edition
func ApplyUpdates(s *Session, script string) (UpdateResult, error) {
	return uql.Apply(s, script)
}

// PublishedMatrix returns the paper's Figure 7 verbatim.
func PublishedMatrix() []Assessment { return core.PublishedMatrix() }

// MeasuredMatrix evaluates every registered scheme with the framework
// probes and returns the measured matrix rows with their reports.
func MeasuredMatrix(cfg ProbeConfig) ([]Assessment, []*Report, error) {
	return core.EvaluateAll(cfg)
}

// DefaultProbeConfig returns the standard probe sizes.
func DefaultProbeConfig() ProbeConfig { return core.DefaultProbeConfig() }

// EvaluateScheme measures a single scheme against the framework.
func EvaluateScheme(name string, cfg ProbeConfig) (Assessment, *Report, error) {
	s, ok := core.SchemeByName(name)
	if !ok {
		return Assessment{}, nil, fmt.Errorf("xmldyn: unknown scheme %q", name)
	}
	return core.Evaluate(s, cfg)
}

// RenderMatrix writes matrix rows in the Figure 7 layout.
func RenderMatrix(w io.Writer, rows []Assessment) error {
	return core.RenderMatrix(w, rows)
}

// Advisor types: the §5.2 selection guidance as code.
type (
	// Requirements captures what a repository needs from its scheme.
	Requirements = core.Requirements
	// Recommendation is one ranked advisor result.
	Recommendation = core.Recommendation
	// Profile names a built-in selection scenario.
	Profile = core.Profile
)

// Built-in advisor profiles (§5.2's worked examples and relatives).
const (
	ProfileVersionControl = core.ProfileVersionControl
	ProfileLargeDocuments = core.ProfileLargeDocuments
	ProfileQueryHeavy     = core.ProfileQueryHeavy
	ProfileGeneral        = core.ProfileGeneral
)

// Recommend ranks matrix rows against requirements (use
// PublishedMatrix() rows, or MeasuredMatrix(...) rows for grades probed
// from the live implementations).
func Recommend(rows []Assessment, req Requirements) []Recommendation {
	return core.Recommend(rows, req)
}

// RecommendProfile runs a named profile against the published matrix.
func RecommendProfile(p Profile) ([]Recommendation, error) {
	req, err := core.ProfileRequirements(p)
	if err != nil {
		return nil, err
	}
	return core.Recommend(core.PublishedMatrix(), req), nil
}

// Figure renders the paper's figure n (1-6) from the live
// implementations.
func Figure(n int) (string, error) { return figures.Figure(n) }

// MeanLabelBits reports the average label storage cost of a session's
// document.
func MeanLabelBits(s *Session) float64 {
	return labeling.MeanBits(s.Labeling(), s.Document())
}

// VerifyOrder re-checks that the session's labels order exactly as the
// document does — the §1 invariant every dynamic scheme must maintain.
func VerifyOrder(s *Session) error { return s.Verify() }

// --- batched transactions ----------------------------------------------------

// Batched-update types: queue ops against a session and commit them as
// one transaction that verifies document order once however many ops
// it carries (see internal/update's batch layer).
type (
	// Op is one queued structural or content operation.
	Op = update.Op
	// OpKind discriminates queued operations.
	OpKind = update.OpKind
	// Batch accumulates ops for one session (Session.Batch()). The one a
	// repository's build callback is handed (DurableRepository.Batch,
	// MultiDoc.Batch) is the document's own, emptied when the commit
	// returns: queue on it inside the callback and do not keep it.
	Batch = update.Batch
	// BatchResult reports a committed batch's created nodes. From a
	// repository they are detached deep copies that share one
	// allocation per document: holding one keeps that transaction's
	// other copies reachable.
	BatchResult = update.BatchResult
)

// Op constructors re-exported for batch assembly. A batched move is a
// DeleteOp plus the matching InsertSubtree*Op on the detached root.
var (
	InsertBeforeOp        = update.InsertBeforeOp
	InsertAfterOp         = update.InsertAfterOp
	InsertFirstChildOp    = update.InsertFirstChildOp
	AppendChildOp         = update.AppendChildOp
	InsertSubtreeBeforeOp = update.InsertSubtreeBeforeOp
	InsertSubtreeAfterOp  = update.InsertSubtreeAfterOp
	InsertSubtreeFirstOp  = update.InsertSubtreeFirstOp
	AppendSubtreeOp       = update.AppendSubtreeOp
	DeleteOp              = update.DeleteOp
	SetTextOp             = update.SetTextOp
	RenameOp              = update.RenameOp
	SetAttrOp             = update.SetAttrOp
)

// ApplyBatch commits ops against a session as one transaction.
func ApplyBatch(s *Session, ops []Op) (*BatchResult, error) { return s.Apply(ops) }

// ApplyWorkloadBatched drives a §5.1 scenario through batched
// transactions of up to batchSize ops each.
func ApplyWorkloadBatched(s *Session, spec WorkloadSpec, batchSize int) error {
	_, err := workload.ApplyBatched(s, spec, batchSize)
	return err
}

// --- concurrent repository ---------------------------------------------------

// Repository types: the server-side layer holding many named labelled
// documents behind sharded locks (see internal/repo).
type (
	// Repository manages named documents for concurrent readers and
	// per-document-serialized writers.
	Repository = repo.Repository
	// RepoDoc is one named document slot in a repository.
	RepoDoc = repo.Doc
	// RepoOptions configures shard count, auto-verification and the
	// time-travel retention window (RetainVersions: how many
	// superseded versions per document stay reachable by SnapshotAt).
	RepoOptions = repo.Options
	// MultiDoc is one document's handle inside a MultiBatch — an
	// atomic transaction across several named documents: the build
	// callback navigates Document() and queues ops on Batch(), every
	// involved document is write-locked in sorted-name order, and the
	// per-document batches commit everywhere or roll back everywhere.
	// Both Repository.MultiBatch and DurableRepository.MultiBatch use
	// it; the durable variant logs the whole transaction as one WAL
	// record, so crash recovery is all-or-nothing too. A MultiDoc and
	// its Batch() are valid only inside the build callback.
	MultiDoc = repo.MultiDoc
	// RepoSnapshot is a pinned, immutable, transaction-consistent
	// view of one or more repository documents (Repository.Snapshot /
	// DurableRepository.Snapshot, or SnapshotAt for the state at an
	// earlier commit stamp): reads on it hold no lock, always observe
	// the identical committed state, and cannot see a MultiBatch half
	// applied. Stamps reports the commit stamp each pinned version
	// was current at, so a later SnapshotAt can revisit it. Close it
	// when done so its versions can be reclaimed. docs/CONCURRENCY.md
	// specifies the full model.
	RepoSnapshot = repo.Snapshot
	// RepoVersionStats is the repository's MVCC accounting — open
	// snapshots, pinned versions, live version roots, retained
	// time-travel versions — for leak triage (docs/OPERATIONS.md §7).
	RepoVersionStats = repo.VersionStats
)

// Repository errors re-exported for errors.Is.
var (
	ErrRepoExists   = repo.ErrExists
	ErrRepoNotFound = repo.ErrNotFound
	// ErrSnapshotClosed reports a read on a RepoSnapshot after Close.
	ErrSnapshotClosed = repo.ErrSnapshotClosed
	// ErrVersionEvicted reports a SnapshotAt stamp older than the
	// retained window (RepoOptions.RetainVersions).
	ErrVersionEvicted = repo.ErrVersionEvicted
	// ErrFrozen reports a mutation attempted on a frozen snapshot
	// node; Clone the node for a mutable copy (docs/CONCURRENCY.md §6).
	ErrFrozen = xmltree.ErrFrozen
)

// NewRepository creates an empty repository (zero options give 16
// shards with auto-verify on).
func NewRepository(opts RepoOptions) *Repository { return repo.New(opts) }

// SaveRepository serialises every document of a repository into one
// version-2 store container.
func SaveRepository(r *Repository) ([]byte, error) { return r.Save() }

// RestoreRepository rebuilds a repository from a SaveRepository
// container, reopening every document under its recorded scheme.
func RestoreRepository(data []byte, opts RepoOptions) (*Repository, error) {
	return repo.Load(data, opts)
}

// --- durable repository ------------------------------------------------------

// Durable repository types: the crash-safe layer — a Repository whose
// commits are write-ahead logged into numbered segments and whose
// state survives process death with bounded recovery cost (see
// internal/repo's durable layer, docs/DURABILITY.md for the on-disk
// format and recovery protocol, and docs/OPERATIONS.md for the
// operator's guide).
type (
	// DurableRepository is a write-ahead-logged repository: every
	// Open/Drop/Update/Batch is appended to the segmented log before
	// the document lock is released, Checkpoint (manual, or the
	// background auto-checkpoint once live log bytes pass the
	// threshold) incrementally folds the log into per-document
	// snapshot files — only documents that changed are rewritten — and
	// deletes the dead segments, and NewDurableRepository replays
	// snapshots + segments back to the exact committed state after a
	// crash.
	DurableRepository = repo.DurableRepository
	// DurableOptions configures a durable repository: the inner
	// repository options, the WAL fsync policy and flusher timing,
	// the SegmentBytes rotation threshold and the AutoCheckpointBytes
	// auto-checkpoint threshold.
	DurableOptions = repo.DurableOptions
	// SyncPolicy selects when committed records reach stable storage.
	SyncPolicy = wal.SyncPolicy
)

// WAL fsync policies for DurableOptions.Sync: fsync per commit,
// grouped fsyncs shared by concurrent committers, or asynchronous
// background fsyncs with a bounded loss window.
const (
	SyncPerCommit = wal.SyncPerCommit
	SyncGrouped   = wal.SyncGrouped
	SyncAsync     = wal.SyncAsync
)

// ErrRepoClosed reports use of a closed durable repository.
var ErrRepoClosed = repo.ErrClosed

// NewDurableRepository opens (creating if necessary) the durable
// repository stored in dir, recovering any committed state: it loads
// the per-document snapshot files the manifest names (decoding them
// concurrently, on up to GOMAXPROCS workers),
// replays the live write-ahead-log segments on top in index order —
// partitioned by document across the same worker pool, stopping
// cleanly at a torn tail in the newest segment — and is then ready
// for logged commits. The log rotates into fresh segments as it
// grows, and a background auto-checkpoint (on by default; see
// DurableOptions.AutoCheckpointBytes) folds it into fresh snapshots
// for the documents that changed whenever live log bytes pass the
// threshold, so recovery time stays bounded regardless of total
// history. Call Checkpoint() to fold the log on demand, and Close()
// before discarding the repository.
func NewDurableRepository(dir string, opts DurableOptions) (*DurableRepository, error) {
	return repo.OpenDurable(dir, opts)
}

// --- replication -------------------------------------------------------------

// Replication types: WAL-shipping read replicas on top of the durable
// repository — the leader's Shipper streams sealed segments and then
// live records to each Follower, which replays them into its own
// durable store and serves the same lock-free MVCC snapshot reads
// with an explicit staleness bound. The follower's applied prefix is
// byte-identical to the leader's log at every acknowledged position,
// so a promoted follower recovers exactly like a crashed leader.
// docs/REPLICATION.md specifies the wire protocol, the catch-up
// protocol and the failure matrix; docs/OPERATIONS.md §10 is the
// staleness triage guide.
type (
	// Shipper is the leader side: it serves any number of follower
	// connections from a DurableRepository's log, bootstrapping from a
	// checkpoint when a follower is too far behind to resume, and pins
	// WAL segments a connected follower still needs so checkpoints
	// cannot delete them mid-backfill. Sessions exposes per-follower
	// sent/acked positions for monitoring.
	Shipper = replica.Shipper
	// ShipperOptions configures a Shipper (heartbeat cadence).
	ShipperOptions = replica.ShipperOptions
	// ShipperSessionInfo is one follower session's observability
	// snapshot (Shipper.Sessions): sent and durably-acked positions,
	// and whether the session began with a checkpoint bootstrap.
	ShipperSessionInfo = replica.SessionInfo
	// Follower is a live read replica: Run drives the session loop
	// (reconnect on transient failures, wipe-and-rebootstrap on
	// divergence), while Snapshot/SnapshotAt serve lock-free reads at
	// any time and Lag/AppliedStamp bound their staleness explicitly —
	// Lag is the stream distance to the leader's last advertised
	// durable end, in bytes; 0 means caught up.
	Follower = replica.Follower
	// FollowerOptions configures a Follower: its local durable-store
	// options, the Dial function reaching the leader, and the
	// reconnect/ack cadences.
	FollowerOptions = replica.FollowerOptions
)

// ErrShipperClosed reports an operation on a closed Shipper.
var ErrShipperClosed = replica.ErrShipperClosed

// ErrFollowerDiverged reports a replicated record that contradicts
// the follower's local state — the leader and follower histories have
// forked (e.g. the follower's async-policy store lost a tail the
// leader kept). The Follower.Run loop recovers by wiping its state
// and re-bootstrapping from a leader checkpoint
// (docs/REPLICATION.md §5).
var ErrFollowerDiverged = repo.ErrDiverged

// NewShipper wraps a durable repository with the leader side of
// replication. Serve accepts followers from a net.Listener;
// HandleConn serves a single externally-dialled connection. Close the
// shipper before closing the repository.
func NewShipper(d *DurableRepository, opts ShipperOptions) *Shipper {
	return replica.NewShipper(d, opts)
}

// OpenFollower opens (or creates) follower state at dir and returns
// the replica handle. Run connects via opts.Dial and keeps the
// follower converging toward the leader until Close; reads work at
// any point in that lifecycle. The follower applies records under its
// own fsync policy (opts.Store.Sync), so its durability window is its
// own choice, independent of the leader's.
func OpenFollower(dir string, opts FollowerOptions) (*Follower, error) {
	return replica.OpenFollower(dir, opts)
}
