package update_test

// The differential oracle for commit-time verification. A twin runs one
// generated transaction stream through two sessions over identical
// documents and one scheme: session a verifies at commit (the
// incremental check under test), session b has auto-verify off and is
// judged by hand with the full labeling.VerifyOrder pass. After every
// commit the two verdicts must agree, and a's FullVerifies must stay
// within what the documented fallback triggers allow.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/labeling"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// picker makes every choice of the transaction generator, so a seeded
// stream and a fuzz input drive the same code. Two pickers in the same
// state build the same transaction against the two twins.
type picker interface {
	pick(n int) int // in [0, n)
}

type rngPicker struct{ *rand.Rand }

func (p rngPicker) pick(n int) int { return p.Intn(n) }

// bytePicker reads choices off a fuzz input; past its end every choice
// is 0.
type bytePicker struct {
	data []byte
	pos  int
}

func (p *bytePicker) pick(n int) int {
	p.pos++
	if p.pos > len(p.data) {
		return 0
	}
	return int(p.data[p.pos-1]) % n
}

type txnMode int

const (
	modeSingle  txnMode = iota // one named op or move: a transaction of one
	modeBatch                  // Apply
	modeFailing                // Apply of a batch whose last op fails at apply time
	modeStaged                 // Stage, then Abort
)

func (m txnMode) String() string {
	return [...]string{"single", "batch", "failing-batch", "staged-abort"}[m]
}

// genOptions bounds what the generator emits.
type genOptions struct {
	moves     bool // single-op moves and delete+graft batches
	rollbacks bool // failing batches and staged aborts
	// deletesInRollbacks lets a rolled-back batch delete labelled
	// nodes, so its rollback re-labels them (fallback trigger 3).
	deletesInRollbacks bool
}

var genAll = genOptions{moves: true, rollbacks: true, deletesInRollbacks: true}

// txn is one generated transaction, bound to one session's nodes.
type txn struct {
	mode txnMode
	desc string
	// single runs a modeSingle transaction through the session's
	// single-op surface; ops is the same transaction spelt as a batch,
	// which is how the unverified twin runs it — it has to be able to
	// undo what the verified twin refuses.
	single func() error
	ops    []update.Op
	// restores: the transaction deletes a labelled node, so undoing it
	// re-labels the restored subtree.
	restores bool
}

// The generator keeps the document's shape bounded: node count within
// [genMinNodes, genMaxNodes], and nothing grafted or inserted below
// genMaxDepth (a graft adds up to three levels).
const (
	genMinNodes = 16
	genMaxNodes = 64
	genMaxDepth = 5
)

type gen struct {
	p      picker
	s      *update.Session
	root   *xmltree.Node
	nodes  []*xmltree.Node // labelled nodes, document order, as the transaction starts
	doomed []*xmltree.Node // subtrees an earlier op of the batch detached
	serial int
}

func buildTxn(p picker, s *update.Session, opt genOptions) txn {
	g := &gen{p: p, s: s, root: s.Document().Root(), nodes: s.Document().LabelledNodes()}
	mode := [...]txnMode{modeSingle, modeSingle, modeSingle, modeSingle, modeSingle,
		modeBatch, modeBatch, modeBatch, modeFailing, modeStaged}[p.pick(10)]
	if !opt.rollbacks && mode >= modeFailing {
		mode = modeBatch
	}
	t := txn{mode: mode}
	if mode == modeSingle {
		g.singleOp(&t, opt)
		return t
	}
	deletes := opt.deletesInRollbacks || mode == modeBatch
	for n := 1 + p.pick(8); n > 0; n-- {
		g.batchOp(&t, opt.moves && deletes, deletes)
	}
	if mode == modeFailing {
		g.failingTail(&t, deletes)
	}
	return t
}

// find returns the first node at or after a picked position (wrapping)
// that is outside every doomed subtree and satisfies ok, or nil.
func (g *gen) find(ok func(*xmltree.Node) bool) *xmltree.Node {
	start := g.p.pick(len(g.nodes))
	for i := range g.nodes {
		n := g.nodes[(start+i)%len(g.nodes)]
		if !g.isDoomed(n) && ok(n) {
			return n
		}
	}
	return nil
}

func (g *gen) isDoomed(n *xmltree.Node) bool {
	for _, d := range g.doomed {
		if d == n || d.IsAncestorOf(n) {
			return true
		}
	}
	return false
}

func isElem(n *xmltree.Node) bool {
	return n.Kind() == xmltree.KindElement && n.Depth() <= genMaxDepth
}

func (g *gen) elem() *xmltree.Node { return g.find(isElem) }

func (g *gen) innerElem() *xmltree.Node {
	return g.find(func(n *xmltree.Node) bool { return isElem(n) && n != g.root })
}

func (g *gen) deletable() *xmltree.Node {
	return g.find(func(n *xmltree.Node) bool { return n != g.root })
}

func (g *gen) name(prefix string) string {
	g.serial++
	return fmt.Sprintf("%s%d", prefix, g.serial)
}

// subtree builds a small detached subtree: attributes, text between
// elements, up to three levels.
func (g *gen) subtree() *xmltree.Node {
	sub := xmltree.NewElement(g.name("g"))
	var fill func(e *xmltree.Node, depth int)
	fill = func(e *xmltree.Node, depth int) {
		for i := g.p.pick(3); i > 0; i-- {
			e.SetAttr(fmt.Sprintf("a%d", i), "v")
		}
		if depth == 0 {
			return
		}
		for i := g.p.pick(4); i > 0; i-- {
			if g.p.pick(3) == 0 {
				e.AppendChild(xmltree.NewText("t"))
			}
			k := xmltree.NewElement(g.name("k"))
			e.AppendChild(k)
			fill(k, depth-1)
		}
	}
	fill(sub, 2)
	return sub
}

// kind picks what the next op does, steering the document back into
// [genMinNodes, genMaxNodes].
func (g *gen) kind(moves, deletes bool) string {
	kinds := [...]string{"before", "before", "after", "after", "first", "append", "append",
		"attr", "delete", "delete", "delete", "graft", "graft", "move", "content", "content"}
	k := kinds[g.p.pick(len(kinds))]
	switch {
	case len(g.nodes) > genMaxNodes && deletes:
		k = "delete"
	case len(g.nodes) < genMinNodes && (k == "delete" || k == "move"):
		k = "graft"
	}
	if (k == "delete" && !deletes) || (k == "move" && !moves) {
		k = "append"
	}
	return k
}

func (g *gen) singleOp(t *txn, opt genOptions) {
	s := g.s
	one := func(desc string, op update.Op) {
		t.desc, t.ops = desc, []update.Op{op}
		t.single = func() error { _, err := s.Do(op); return err }
	}
	k := g.kind(opt.moves, true)
	switch k {
	case "before", "after":
		if ref := g.innerElem(); ref != nil {
			if k == "before" {
				one(k, update.InsertBeforeOp(ref, g.name("n")))
			} else {
				one(k, update.InsertAfterOp(ref, g.name("n")))
			}
			return
		}
	case "first":
		one(k, update.InsertFirstChildOp(g.elem(), g.name("n")))
		return
	case "attr":
		one(k, update.SetAttrOp(g.elem(), fmt.Sprintf("a%d", g.p.pick(5)), "v"))
		return
	case "delete":
		if n := g.deletable(); n != nil {
			one(k, update.DeleteOp(n))
			t.restores = true
			return
		}
	case "graft":
		sub, pos := g.subtree(), g.p.pick(4)
		ref := g.innerElem()
		if ref == nil || pos >= 2 {
			ref = g.elem()
		}
		switch {
		case ref != g.root && pos == 0:
			one("graft-before", update.InsertSubtreeBeforeOp(ref, sub))
		case ref != g.root && pos == 1:
			one("graft-after", update.InsertSubtreeAfterOp(ref, sub))
		case pos == 2:
			one("graft-first", update.InsertSubtreeFirstOp(ref, sub))
		default:
			one("graft-append", update.AppendSubtreeOp(ref, sub))
		}
		return
	case "move":
		if n, dest, pos := g.movePair(); n != nil && dest != nil {
			t.restores = true
			switch {
			case pos == 0 && dest != g.root:
				t.desc, t.single = "move-before", func() error { return s.MoveBefore(dest, n) }
				t.ops = []update.Op{update.DeleteOp(n), update.InsertSubtreeBeforeOp(dest, n)}
			case pos == 1 && dest != g.root:
				t.desc, t.single = "move-after", func() error { return s.MoveAfter(dest, n) }
				t.ops = []update.Op{update.DeleteOp(n), update.InsertSubtreeAfterOp(dest, n)}
			default:
				t.desc, t.single = "move-append", func() error { return s.MoveAppend(dest, n) }
				t.ops = []update.Op{update.DeleteOp(n), update.AppendSubtreeOp(dest, n)}
			}
			return
		}
	case "content":
		ref := g.elem()
		if g.p.pick(2) == 0 {
			one("text", update.SetTextOp(ref, "t"))
		} else {
			one("rename", update.RenameOp(ref, g.name("r")))
		}
		return
	}
	one("append", update.AppendChildOp(g.elem(), g.name("n")))
}

// movePair picks a subtree to move and a destination outside it.
func (g *gen) movePair() (n, dest *xmltree.Node, pos int) {
	n = g.innerElem()
	if n == nil {
		return nil, nil, 0
	}
	dest = g.find(func(d *xmltree.Node) bool { return isElem(d) && d != n && !n.IsAncestorOf(d) })
	return n, dest, g.p.pick(3)
}

func (g *gen) batchOp(t *txn, moves, deletes bool) {
	add := func(desc string, ops ...update.Op) {
		t.desc += desc + " "
		t.ops = append(t.ops, ops...)
	}
	k := g.kind(moves, deletes)
	switch k {
	case "before", "after":
		if ref := g.innerElem(); ref != nil {
			if k == "before" {
				add(k, update.InsertBeforeOp(ref, g.name("n")))
			} else {
				add(k, update.InsertAfterOp(ref, g.name("n")))
			}
			return
		}
	case "first":
		if ref := g.elem(); ref != nil {
			add(k, update.InsertFirstChildOp(ref, g.name("n")))
			return
		}
	case "attr":
		if ref := g.elem(); ref != nil {
			add(k, update.SetAttrOp(ref, fmt.Sprintf("a%d", g.p.pick(5)), "v"))
			return
		}
	case "delete":
		if n := g.deletable(); n != nil {
			add(k, update.DeleteOp(n))
			g.doomed = append(g.doomed, n)
			t.restores = true
			return
		}
	case "graft":
		sub, pos := g.subtree(), g.p.pick(4)
		ref := g.innerElem()
		if ref == nil || pos >= 2 {
			ref = g.elem()
		}
		switch {
		case ref == nil:
			return
		case ref != g.root && pos == 0:
			add("graft-before", update.InsertSubtreeBeforeOp(ref, sub))
		case ref != g.root && pos == 1:
			add("graft-after", update.InsertSubtreeAfterOp(ref, sub))
		case pos == 2:
			add("graft-first", update.InsertSubtreeFirstOp(ref, sub))
		default:
			add("graft-append", update.AppendSubtreeOp(ref, sub))
		}
		// Keep writing inside the subtree the batch has just grafted.
		if g.p.pick(2) == 0 {
			add("into-graft", update.AppendChildOp(sub, g.name("n")), update.SetAttrOp(sub, "late", "v"))
		}
		return
	case "move":
		// A batch spells a move as delete + re-graft of the same root.
		if n, dest, pos := g.movePair(); n != nil && dest != nil {
			graft := update.AppendSubtreeOp(dest, n)
			if pos == 0 && dest != g.root {
				graft = update.InsertSubtreeBeforeOp(dest, n)
			}
			add("move", update.DeleteOp(n), graft)
			g.doomed = append(g.doomed, n)
			t.restores = true
			return
		}
	case "content":
		if ref := g.elem(); ref != nil {
			if g.p.pick(2) == 0 {
				add("text", update.SetTextOp(ref, "t"))
			} else {
				add("rename", update.RenameOp(ref, g.name("r")))
			}
			return
		}
	}
	if ref := g.elem(); ref != nil {
		add("append", update.AppendChildOp(ref, g.name("n")))
	}
}

// failingTail ends the batch with an op that passes validation and
// fails at apply time, after everything before it has been applied.
func (g *gen) failingTail(t *txn, deletes bool) {
	if n := g.deletable(); deletes && n != nil && g.p.pick(2) == 0 {
		t.desc += "double-delete"
		t.ops = append(t.ops, update.DeleteOp(n), update.DeleteOp(n))
		t.restores = true
		return
	}
	sub := xmltree.NewElement(g.name("f"))
	attr, _ := sub.SetAttr("fa", "v")
	t.desc += "child-of-attribute"
	t.ops = append(t.ops, update.AppendSubtreeOp(g.root, sub), update.InsertFirstChildOp(attr, "x"))
}

// twin is the pair of sessions and the running account of what a's
// counters may show.
type twin struct {
	t      testing.TB
	scheme core.SchemeUnderTest
	a, b   *update.Session

	txns        int
	verified    int64 // transactions that reached a commit-time verification
	failed      int   // of those, how many the full pass rejected
	allowedFull int64 // upper bound on a's FullVerifies, by the documented triggers
	relabelled  int64 // transactions in which the labelling changed an existing label
}

// newTwin starts both sessions over clones of doc.
func newTwin(t testing.TB, scheme core.SchemeUnderTest, doc *xmltree.Document) *twin {
	tw := &twin{t: t, scheme: scheme}
	var err error
	if tw.a, err = update.NewSession(doc.Clone(), scheme.Factory()); err != nil {
		t.Fatal(err)
	}
	if tw.b, err = update.NewSession(doc.Clone(), scheme.Factory()); err != nil {
		t.Fatal(err)
	}
	tw.a.SetAutoVerify(true)
	tw.allowedFull++ // trigger 1: the session's first verification
	return tw
}

func (tw *twin) fullVerifies() int64 { return tw.a.Counters().FullVerifies }

func relabelCounters(s *update.Session) labeling.Stats {
	return s.Labeling().Stats().Relabelling()
}

func isOrderErr(err error) bool {
	return strings.Contains(err.Error(), "document order violated") || strings.Contains(err.Error(), "unlabelled node")
}

// step generates one transaction from the two (identical) pickers, runs
// it on both sessions and compares.
func (tw *twin) step(pa, pb picker, opt genOptions) {
	t := tw.t
	ta, tb := buildTxn(pa, tw.a, opt), buildTxn(pb, tw.b, opt)
	tw.txns++
	where := fmt.Sprintf("%s txn %d (%s: %s)", tw.scheme.Name, tw.txns, ta.mode, ta.desc)
	before, opsA := relabelCounters(tw.a), tw.a.Counters().Operations

	// verdicts compares a's commit-time answer with the full pass over
	// b's identical tree, and reports whether the commit stood.
	verdicts := func(errA error) bool {
		tw.verified++
		full := labeling.VerifyOrder(tw.b.Labeling(), tw.b.Document())
		if (errA == nil) != (full == nil) {
			t.Fatalf("%s: incremental verdict %v, full pass %v", where, errA, full)
		}
		if errA != nil && !isOrderErr(errA) {
			t.Fatalf("%s: commit failed with %v where the full pass reports %v", where, errA, full)
		}
		if full != nil {
			tw.failed++
			tw.allowedFull++ // trigger 1: the verification after a failed one
		}
		return full == nil
	}
	sameFailure := func(errA, errB error) {
		if errA == nil || errA.Error() != errB.Error() {
			t.Fatalf("%s: twins diverged: a %v, b %v", where, errA, errB)
		}
	}

	// a runs the transaction the way its mode says. b, the coordinator's
	// other document, always stages it and then does what a did: commits
	// what a kept, aborts what a took back or refused.
	var errA error
	switch ta.mode {
	case modeSingle:
		errA = ta.single()
	case modeStaged:
		_, errA = tw.a.Stage(ta.ops)
	default:
		_, errA = tw.a.Apply(ta.ops)
	}
	_, errB := tw.b.Stage(tb.ops)
	abort := func(s *update.Session) {
		if err := s.Abort(); err != nil {
			t.Fatalf("%s: abort: %v", where, err)
		}
	}
	reverted := true
	switch {
	case errB != nil: // an op failed; both reverted
		sameFailure(errA, errB)
		if ta.restores {
			tw.allowedFull++ // trigger 3
		}
	case !verdicts(errA):
		abort(tw.b) // a reverted itself
		if ta.restores {
			tw.allowedFull++
		}
	case ta.mode == modeStaged:
		abort(tw.a)
		abort(tw.b)
		if ta.restores || relabelCounters(tw.a) != before {
			tw.allowedFull++ // trigger 3
		}
	default:
		tw.b.Commit()
		reverted = false
	}
	if ta.mode == modeStaged && tw.a.Counters().Operations != opsA {
		t.Fatalf("%s: a staged and aborted transaction was counted", where)
	}
	if relabelCounters(tw.a) != before {
		tw.relabelled++
		tw.allowedFull++ // trigger 2: an existing label changed
	}

	// The twins must stay in lockstep, tree and labels — after a revert
	// above all: it has to leave exactly what a commit would have found.
	// (A divergence also derails the shared choices within a few
	// transactions.)
	if reverted || tw.txns%16 == 0 {
		if xa, xb := tw.a.Document().XML(), tw.b.Document().XML(); xa != xb {
			t.Fatalf("%s: twins diverged:\n a %s\n b %s", where, xa, xb)
		}
		la, lb := renderedLabels(tw.a), renderedLabels(tw.b)
		if strings.Join(la, " ") != strings.Join(lb, " ") {
			t.Fatalf("%s: twin labels diverged", where)
		}
	}
	if got, want := tw.fullVerifies(), tw.allowedFull; got > want {
		t.Fatalf("%s: FullVerifies = %d, the fallback triggers allow %d", where, got, want)
	}
	if got := tw.a.Counters().Verifies; got != tw.verified {
		t.Fatalf("%s: Verifies = %d, want one per verified commit = %d", where, got, tw.verified)
	}
}

func renderedLabels(s *update.Session) []string {
	var out []string
	s.Document().WalkLabelled(func(n *xmltree.Node) bool {
		l := s.Labeling().Label(n)
		if l == nil {
			out = append(out, "<nil>")
		} else {
			out = append(out, l.String())
		}
		return true
	})
	return out
}

func diffDoc() *xmltree.Document {
	return xmltree.Generate(xmltree.GenOptions{Seed: 7, MaxDepth: 4, MaxChildren: 4, AttrProb: 0.4, TextProb: 0.5, TargetNodes: 32})
}

// claimsPersistence: the paper's Figure 7 grades the scheme Full on
// Persistent Labels.
func claimsPersistence(name string) bool {
	row, ok := core.PublishedRow(name)
	return ok && row.Grades[core.PersistentLabels] == core.Full
}

// TestIncrementalVerifyMatchesFullPass is the acceptance test of the
// incremental check: for every registry scheme — the defective lsdx
// included — the verdict of every commit of a seeded stream of inserts
// at every position, attribute sets, deletes, grafts, moves, failing
// batches and staged aborts equals the full pass's verdict.
func TestIncrementalVerifyMatchesFullPass(t *testing.T) {
	holdBulkViews(t)
	txns := 12000 // one in ten is a failing batch: more than 10 000 reach a verdict
	if testing.Short() || raceEnabled {
		txns = 1200
	}
	for _, scheme := range core.Registry() {
		t.Run(scheme.Name, func(t *testing.T) {
			t.Parallel()
			tw := newTwin(t, scheme, diffDoc())
			// Two generators in the same state: they stay there for as
			// long as the twins' trees agree.
			pa, pb := rngPicker{rand.New(rand.NewSource(1))}, rngPicker{rand.New(rand.NewSource(1))}
			run := func(n int, opt genOptions) {
				for ; n > 0; n-- {
					tw.step(pa, pb, opt)
				}
			}
			// First half: no rollback re-labels anything, so a scheme
			// that keeps its labels has no reason to fall back at all:
			// FullVerifies stays at 1. The one way out is the scheme
			// itself counting a relabelling — the registry's "vector"
			// is the containment mounting, whose nested mediants cross
			// the 2^21 component ceiling of paper §4 and renumber.
			run(txns/2, genOptions{moves: true, rollbacks: true})
			if claimsPersistence(scheme.Name) {
				if got := tw.fullVerifies(); (got != 1 && tw.relabelled == 0) || tw.failed != 0 {
					t.Fatalf("%s claims persistent labels: FullVerifies = %d after %d commits (%d rejected, %d relabelled), want the first one only",
						scheme.Name, got, tw.verified, tw.failed, tw.relabelled)
				}
				if tw.relabelled > 0 {
					t.Logf("%s claims persistent labels and relabelled in %d of %d transactions", scheme.Name, tw.relabelled, tw.txns)
				}
			}
			run(txns-txns/2, genAll)
			if scheme.Name == "lsdx" && tw.failed == 0 {
				t.Error("lsdx: the stream never produced a label collision; the failing verdicts went untested")
			}
			t.Logf("%d commits verified, %d by the full pass (triggers allow %d), %d rejected",
				tw.verified, tw.fullVerifies(), tw.allowedFull, tw.failed)
		})
	}
}

// TestAppendOnlySessionFullVerifiesOnce: an append-only stream changes
// no existing label, on a scheme that claims persistent labels (qed)
// and on one that does not (deweyid) — so a session verifies once per
// transaction, single ops and batches alike, and only its first
// verification walks the document.
func TestAppendOnlySessionFullVerifiesOnce(t *testing.T) {
	const ops, batch = 256, 32
	for _, name := range []string{"qed", "deweyid"} {
		for _, size := range []int{1, batch} {
			s, err := update.NewSession(workload.BaseDocument(9, 200), core.MustScheme(name).Factory())
			if err != nil {
				t.Fatal(err)
			}
			s.SetAutoVerify(true)
			res, err := workload.ApplyBatched(s, workload.Spec{Kind: workload.AppendOnly, Ops: ops, Seed: 9}, size)
			if err != nil {
				t.Fatal(err)
			}
			ctr := s.Counters()
			if res.Applied != ops || ctr.Verifies != ops/int64(size) || ctr.FullVerifies != 1 {
				t.Errorf("%s, transactions of %d: %d ops applied, Verifies = %d, FullVerifies = %d, want %d, %d and 1",
					name, size, res.Applied, ctr.Verifies, ctr.FullVerifies, ops, ops/size)
			}
		}
	}
}

// TestRelabelCountersSeeEveryLabelChange is the contract the fast path
// stands on: when a transaction changes the rendered label of a node
// that was labelled before it and has stayed attached, the labelling's
// RelabelEvents, Relabeled or OverflowEvents moves. (Moves and
// rollbacks re-label on purpose and are kept out of this stream.)
func TestRelabelCountersSeeEveryLabelChange(t *testing.T) {
	txns := 1500
	if testing.Short() || raceEnabled {
		txns = 300
	}
	for _, scheme := range core.Registry() {
		t.Run(scheme.Name, func(t *testing.T) {
			t.Parallel()
			s, err := update.NewSession(diffDoc(), scheme.Factory())
			if err != nil {
				t.Fatal(err)
			}
			changed := 0
			for i := 0; i < txns; i++ {
				tx := buildTxn(rngPicker{rand.New(rand.NewSource(int64(i)))}, s, genOptions{})
				snap := labeling.Snapshot(s.Labeling(), s.Document())
				before := relabelCounters(s)
				if tx.mode == modeSingle {
					err = tx.single()
				} else {
					_, err = s.Apply(tx.ops)
				}
				if err != nil {
					t.Fatalf("txn %d (%s): %v", i, tx.desc, err)
				}
				moved := relabelCounters(s) != before
				for n, was := range labeling.Snapshot(s.Labeling(), s.Document()) {
					if old, ok := snap[n]; ok && old != was {
						changed++
						if !moved {
							t.Fatalf("txn %d (%s): label of %q changed %s -> %s with the relabel counters still at %+v",
								i, tx.desc, n.Name(), old, was, before)
						}
					}
				}
			}
			t.Logf("%d label changes, all counted", changed)
		})
	}
}

// FuzzIncrementalVerify lets the fuzzer write the transaction stream:
// the input's bytes are the generator's choices.
func FuzzIncrementalVerify(f *testing.F) {
	reg := core.Registry()
	for i := range reg {
		f.Add(uint8(i), []byte("\x05\x03\x01\x08\x02\x09\x07\x04\x0b\x00\x06\x0d\x0a\x0c\x0e\x0f\x11\x13\x17\x1d\x1f\x25\x29\x2b"))
	}
	doc := diffDoc()
	f.Fuzz(func(t *testing.T, scheme uint8, data []byte) {
		tw := newTwin(t, reg[int(scheme)%len(reg)], doc)
		pos := 0
		for n := 0; pos < len(data) && n < 64; n++ {
			pa, pb := &bytePicker{data: data, pos: pos}, &bytePicker{data: data, pos: pos}
			tw.step(pa, pb, genAll)
			pos = pa.pos
		}
	})
}
