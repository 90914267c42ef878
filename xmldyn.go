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
// writers, every write an op list committed as one transaction
// (Repository.Batch) that verifies document order once per batch
// instead of once per op,
// atomic multi-document transactions (MultiBatch) that commit
// across several named documents or roll back across all of them,
// and MVCC snapshot reads (Repository.Snapshot → RepoSnapshot): a
// commit publishes nothing; the first pin of a state publishes a
// persistent path-copied version of each document the commits since
// the last pin changed — unchanged subtrees shared with the live tree,
// only the mutated spines copied — so a snapshot pins an immutable,
// transaction-consistent version of one or more documents and serves
// every read from it with no lock held: slow readers never stall writers and a multi-document snapshot
// can never observe a MultiBatch half applied. A superseded version
// lives only as long as a snapshot pins it; document history belongs
// to Persistent Labels, not to the repository (docs/CONCURRENCY.md
// specifies the consistency model; RepoVersionStats exposes the
// version accounting). Save/Restore
// round-trip one session and SaveRepository/RestoreRepository the
// whole repository through the checksummed pack format checkpoints
// write, which keeps every tree exactly, and
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
	"slices"
	"sort"

	"xmldyn/internal/core"
	"xmldyn/internal/encoding"
	"xmldyn/internal/labeling"
	"xmldyn/internal/replica"
	"xmldyn/internal/repo"
	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/uql"
	"xmldyn/internal/wal"
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

// Open labels doc with the named scheme and returns an update session.
// A document has one labelling: Open, or a repository's Open, on a
// document another session holds fails with ErrDocumentHeld, so a
// second scheme labels doc.Clone().
func Open(doc *Document, scheme string) (*Session, error) {
	sch, ok := core.SchemeByName(scheme)
	if !ok {
		return nil, fmt.Errorf("xmldyn: unknown scheme %q (known: %v)", scheme, Schemes())
	}
	return update.NewSession(doc, sch.Factory())
}

// Encode builds the Definition 2 encoding table over a session's
// labelled document.
func Encode(s *Session) *EncodedDocument { return encoding.Wrap(s.Document(), s.Labeling()) }

// Reconstruct rebuilds a document from encoding rows (Definition 2's
// reconstruction requirement).
func Reconstruct(rows []EncodingRow) (*Document, error) {
	return encoding.Reconstruct(rows)
}

// Save serialises a session's document to the record format
// checkpoints write, as a one-entry pack (internal/store: scheme name,
// the exact tree — text, comments and processing instructions in place
// — and checksums). Labels are not stored: Restore relabels.
func Save(s *Session) ([]byte, error) {
	return store.MarshalDocSnap(store.DocSnap{Scheme: s.Labeling().Name(), Tree: update.EncodeDocTree(s.Document())}), nil
}

// Restore decodes a Save snapshot and reopens its document under the
// snapshot's scheme.
func Restore(data []byte) (*Session, error) {
	snap, err := store.UnmarshalDocSnap(data)
	if err != nil {
		return nil, err
	}
	doc, err := update.DecodeDocTree(snap.Tree)
	if err != nil {
		return nil, err
	}
	return Open(doc, snap.Scheme)
}

// Query evaluates a location path (see Engine.Query for the grammar)
// over a session's document, reading a deep step by name from the
// session's element index (Session.Engine). The answer is a copy: the
// index's lists change in place as the session commits, and the answer
// does not.
func Query(s *Session, path string) ([]*Node, error) {
	nodes, err := s.Engine().Query(path)
	return slices.Clone(nodes), err
}

// LabelQuery returns an engine whose Select answers axes purely from
// label comparisons — the paper's "from the node label alone" XPath
// property. Axes the scheme cannot decide return xpath.ErrUnsupported.
// Only Select decides from labels: the engine's Query reads the tree,
// as Query does, and answers as it does.
func LabelQuery(s *Session) *Engine {
	return xpath.New(s.Document(), s.Labeling(), xpath.ModeLabelOnly)
}

// ErrAxisUnsupported is returned by label-only engines for axes the
// scheme's labels cannot decide.
var ErrAxisUnsupported = xpath.ErrUnsupported

// UpdateResult summarises an ApplyUpdates run.
type UpdateResult = uql.Result

// ApplyUpdates executes an XQuery-Update-Facility-style script against
// the session (see internal/uql for the grammar):
//
//	insert node <isbn>1</isbn> after //author;
//	replace value of node //title with "Homecoming";
//	delete node //edition
//
// Each statement is one transaction, counted as one batch: it commits
// whole or, on an error, leaves the session as the statements before it
// left it.
func ApplyUpdates(s *Session, script string) (UpdateResult, error) {
	return uql.Apply(s, script)
}

// PublishedMatrix returns the paper's Figure 7 verbatim.
func PublishedMatrix() []Assessment { return core.PublishedMatrix() }

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
	// repository's build callback is handed (Repository.Batch,
	// DurableRepository.Batch, MultiDoc.Batch) is the document's own,
	// emptied when the commit returns: queue on it inside the callback
	// and do not keep it.
	Batch = update.Batch
	// BatchResult reports the nodes a session's Apply created: live
	// nodes of its document, usable as refs of later ops. A repository's
	// Batch and MultiBatch hand back only how many elements they
	// inserted; read what they committed through Query or a snapshot.
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

// --- concurrent repository ---------------------------------------------------

// Repository types: the server-side layer holding many named labelled
// documents behind sharded locks (see internal/repo).
type (
	// Repository manages named documents for concurrent readers and
	// per-document-serialized writers. Its writes are Open, Batch,
	// MultiBatch and Drop: each is an op list queued and committed under
	// the write lock, with the durable leader's signatures. Batch and
	// MultiBatch return the number of elements the commit inserted.
	Repository = repo.Repository
	// MultiDoc is one document's handle inside a MultiBatch — an
	// atomic transaction across several named documents: the build
	// callback navigates Document() and queues ops on Batch(), as a
	// Batch build does for one document, every involved document is
	// write-locked in sorted-name order, and the per-document batches
	// commit everywhere or roll back everywhere. Both
	// Repository.MultiBatch and DurableRepository.MultiBatch use it; the
	// durable variant logs the whole transaction as one WAL record, so
	// crash recovery is all-or-nothing too. A MultiDoc and its Batch()
	// are valid only inside the build callback.
	MultiDoc = repo.MultiDoc
	// RepoSnapshot is a pinned, immutable, transaction-consistent
	// view of one or more repository documents (Repository.Snapshot /
	// DurableRepository.Snapshot): reads on it hold no lock, always
	// observe the identical committed state, and cannot see a
	// MultiBatch half applied. Close it when done so its versions can
	// be reclaimed. A version keeps the lists its first reads by name
	// build, and every snapshot of it is handed them: the slice Query
	// returns is shared, and the caller must not write to it.
	// docs/CONCURRENCY.md specifies the full model.
	RepoSnapshot = repo.Snapshot
	// RepoVersionStats is the repository's MVCC accounting — open
	// snapshots, pinned versions, live version roots — for leak triage
	// (docs/OPERATIONS.md §7).
	RepoVersionStats = repo.VersionStats
)

// Repository errors re-exported for errors.Is.
var (
	ErrRepoExists   = repo.ErrExists
	ErrRepoNotFound = repo.ErrNotFound
	// ErrSnapshotClosed reports a read on a RepoSnapshot after Close.
	ErrSnapshotClosed = repo.ErrSnapshotClosed
	// ErrFrozen reports a mutation attempted on a frozen snapshot
	// node; Clone the node for a mutable copy (docs/CONCURRENCY.md §7).
	ErrFrozen = xmltree.ErrFrozen
	// ErrDocumentHeld reports a document labelled by another session.
	ErrDocumentHeld = labeling.ErrHeld
)

// NewRepository creates an empty repository.
func NewRepository() *Repository { return repo.New() }

// SaveRepository serialises every document of a repository into one
// store image: a pack whose every record is its own.
func SaveRepository(r *Repository) ([]byte, error) { return r.Save() }

// RestoreRepository rebuilds a repository from a SaveRepository
// image, reopening every document under its recorded scheme.
func RestoreRepository(data []byte) (*Repository, error) {
	return repo.Load(data)
}

// --- durable repository ------------------------------------------------------

// Durable repository types: the crash-safe layer — a Repository whose
// commits are write-ahead logged into numbered segments and whose
// state survives process death with bounded recovery cost (see
// internal/repo's durable layer, docs/DURABILITY.md for the on-disk
// format and recovery protocol, and docs/OPERATIONS.md for the
// operator's guide).
type (
	// DurableRepository is a write-ahead-logged repository with the
	// Repository's write methods: every Open/Drop/Batch/MultiBatch is
	// appended to the segmented log before the document lock is
	// released, Checkpoint (manual, or the
	// background auto-checkpoint once live log bytes pass the
	// threshold) incrementally folds the log into one pack file —
	// only documents that changed are rewritten — and deletes the dead
	// segments, and NewDurableRepository replays packs + segments back
	// to the exact committed state after a crash.
	DurableRepository = repo.DurableRepository
	// DurableOptions configures a durable repository: the inner
	// repository options, the WAL fsync policy and flusher timing,
	// the SegmentBytes rotation threshold and the AutoCheckpointBytes
	// auto-checkpoint threshold.
	DurableOptions = repo.DurableOptions
	// SyncPolicy selects when committed records reach stable storage.
	SyncPolicy = wal.SyncPolicy
)

// WAL fsync policies for DurableOptions.Sync: grouped fsyncs shared by
// concurrent committers (the default), or asynchronous background
// fsyncs with a bounded loss window.
const (
	SyncGrouped = wal.SyncGrouped
	SyncAsync   = wal.SyncAsync
)

// ErrRepoClosed reports use of a closed durable repository.
var ErrRepoClosed = repo.ErrClosed

// NewDurableRepository opens (creating if necessary) the durable
// repository stored in dir, recovering any committed state: it loads
// the records of the current pack and the older packs it references
// (decoding them concurrently, on up to GOMAXPROCS workers),
// replays the live write-ahead-log segments on top in index order —
// partitioned by document across the same worker pool, stopping
// cleanly at a torn tail in the newest segment — and is then ready
// for logged commits. The log rotates into fresh segments as it
// grows, and a background auto-checkpoint (on by default; see
// DurableOptions.AutoCheckpointBytes) folds it into a fresh pack
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
	// (every failure reconnects; after a divergence the next session
	// bootstraps, in place, into the same repository), while Snapshot and Repo's reads serve lock-free at
	// any time and Lag/Position bound their staleness explicitly —
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
// forked (e.g. an async-policy leader crashed and lost a tail the
// follower had applied). The follower's position drops to zero, so
// the Follower.Run loop's next session bootstraps from a leader
// checkpoint, installed in place (docs/REPLICATION.md §5).
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
