package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"xmldyn/internal/core"
	"xmldyn/internal/labeling"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// nodeIndex is the label storm's own generator state: the document's
// elements in a slice, so that picking a random element costs O(1).
// workload.Apply re-walks the whole tree for every op (about 100 µs
// per op at 1000 nodes, the same for every scheme), which would bury
// the schemes' own cost, so it must not be the timed driver: the storm
// drives update.Session itself and keeps this index beside it.
// Deleted subtrees are dropped lazily: an entry found detached when
// picked is swapped out and the pick repeated, which stays
// deterministic for a given pick sequence.
type nodeIndex struct {
	docNode *xmltree.Node
	elems   []*xmltree.Node
	live    int // attached elements, dead entries excluded
}

func newNodeIndex(doc *xmltree.Document) *nodeIndex {
	ix := &nodeIndex{docNode: doc.Node()}
	doc.WalkLabelled(func(n *xmltree.Node) bool {
		if n.Kind() == xmltree.KindElement {
			ix.add(n)
		}
		return true
	})
	return ix
}

func (ix *nodeIndex) add(n *xmltree.Node) {
	ix.elems = append(ix.elems, n)
	ix.live++
}

func (ix *nodeIndex) attached(n *xmltree.Node) bool {
	for ; n != nil; n = n.Parent() {
		if n == ix.docNode {
			return true
		}
	}
	return false
}

// pick returns the attached element the draw r selects. The root is
// always attached, so the loop ends.
func (ix *nodeIndex) pick(r uint32) *xmltree.Node {
	for {
		i := int(r) % len(ix.elems)
		if n := ix.elems[i]; ix.attached(n) {
			return n
		}
		last := len(ix.elems) - 1
		ix.elems[i] = ix.elems[last]
		ix.elems = ix.elems[:last]
	}
}

func countElements(n *xmltree.Node) int {
	total := 1
	for _, c := range n.Children() {
		if c.Kind() == xmltree.KindElement {
			total += countElements(c)
		}
	}
	return total
}

// stormKinds are the three streams every scheme receives, in order:
// the paper's skewed (fixed-position) and random insertions, then
// churn with 30 % deletions.
var stormKinds = []workload.Kind{workload.Skewed, workload.Random, workload.Churn}

const churnDeletePercent = 30

// churnSubtreeCap bounds the subtree a churn delete may remove. A
// random element is now and then a child of the root; deleting an
// eighth of the document in one op makes the final node count, and
// with it every per-node figure, swing by a factor of two from seed to
// seed.
const churnSubtreeCap = 16

// schemeCounts are one scheme's exact counts after a storm pass.
type schemeCounts struct {
	Ops       int
	Nodes     int
	TotalBits int
	XMLBytes  int
	Relabeled int64
	Overflows int64
	Assigned  int64
}

func (s schemeCounts) bitsPerNode() float64 { return ratio(float64(s.TotalBits), float64(s.Nodes)) }

// stormResult is the outcome of the label storm: per pass the set-up
// and the run time, every op's latency, and the counts of the first
// pass (every later pass must repeat them exactly, which runStorm
// checks).
type stormResult struct {
	passOps  int     // ops of one pass, all schemes
	setups   samples // per pass: building and labelling the six documents
	passes   samples // per pass: the ops of all six schemes
	lat      samples // every op of every pass
	mem      memMark // allocated inside the op loops, all passes
	counts   map[string]schemeCounts
	failures []string
}

// opsPerSecond is the rate of the median pass: one pass is half a
// second, so a stall of the sandbox spoils a pass or two, not the
// figure.
func (s *stormResult) opsPerSecond() float64 { return perSecond(s.passOps, s.passes.quantile(0.5)) }

// runStorm drives the skewed → random → churn streams through each of
// the six schemes on its own copy of one base document, with
// auto-verify off and one order and uniqueness check at the end. It
// runs passes until d is over, at least one. With a tracer, every op
// becomes a request with update and schemes spans (one pass only).
func runStorm(c config, seed int64, d time.Duration, tr *tracer) (*stormResult, error) {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	picks := make([]uint32, len(stormKinds)*c.StormOps)
	for i := range picks {
		picks[i] = rng.Uint32()
	}
	res := &stormResult{counts: map[string]schemeCounts{}}
	deadline := time.Now().Add(d)
	for pass := 0; ; pass++ {
		runtime.GC()
		t0 := time.Now()
		docs := make([]*stormDoc, len(stormSchemes))
		for i, scheme := range stormSchemes {
			var err error
			if docs[i], err = newStormDoc(scheme, c, tr); err != nil {
				return nil, fmt.Errorf("label storm %s: %w", scheme, err)
			}
		}
		res.setups = append(res.setups, time.Since(t0))
		var took time.Duration
		for _, sd := range docs {
			m0 := markMem()
			elapsed, err := sd.run(c, picks, tr, &res.lat)
			m1 := markMem()
			res.mem.mallocs += m1.mallocs - m0.mallocs
			res.mem.bytes += m1.bytes - m0.bytes
			if err == nil {
				err = sd.check()
			}
			if err != nil {
				return nil, fmt.Errorf("label storm %s: %w", sd.scheme, err)
			}
			took += elapsed
			if sc := sd.counts(); pass == 0 {
				res.counts[sd.scheme] = sc
				res.passOps += sc.Ops
			} else if sc != res.counts[sd.scheme] {
				res.failures = append(res.failures, fmt.Sprintf("label storm %s: pass %d counts %+v differ from the first pass %+v", sd.scheme, pass, sc, res.counts[sd.scheme]))
			}
		}
		res.passes = append(res.passes, took)
		if tr != nil || !time.Now().Before(deadline) {
			return res, nil
		}
	}
}

// stormDoc is one scheme's document of one pass: a fresh labelled base
// document, its session and the storm's node index.
type stormDoc struct {
	scheme string
	doc    *xmltree.Document
	lab    labeling.Interface
	sess   *update.Session
	ix     *nodeIndex
	ops    int
}

// newStormDoc is the storm's set-up for one scheme.
func newStormDoc(scheme string, c config, tr *tracer) (*stormDoc, error) {
	s, ok := core.SchemeByName(scheme)
	if !ok {
		return nil, fmt.Errorf("unknown scheme")
	}
	doc := workload.BaseDocument(corpusSeed, c.StormNodes)
	lab := s.Factory()
	if tr != nil {
		lab = &tracedLabeling{Interface: lab, tr: tr, scheme: scheme}
	}
	sess, err := update.NewSession(doc, lab)
	if err != nil {
		return nil, err
	}
	sess.SetAutoVerify(false)
	lab.Stats().Reset()
	return &stormDoc{scheme: scheme, doc: doc, lab: lab, sess: sess, ix: newNodeIndex(doc)}, nil
}

// run drives the three streams through the document, appends every
// op's latency to lat and returns the time the ops took together.
func (sd *stormDoc) run(c config, picks []uint32, tr *tracer, lat *samples) (time.Duration, error) {
	sess, ix, root := sd.sess, sd.ix, sd.doc.Root()
	skewRef := root
	if len(ix.elems) > 1 {
		skewRef = ix.elems[1] // first element after the root in document order
	}
	floor := c.StormNodes / 4

	insert := func(ref *xmltree.Node, r uint32) (*xmltree.Node, error) {
		switch where := r >> 24 % 4; {
		case where == 0 && ref != root:
			return sess.InsertBefore(ref, "w")
		case where == 1 && ref != root:
			return sess.InsertAfter(ref, "w")
		case where == 2:
			return sess.InsertFirstChild(ref, "w")
		default:
			return sess.AppendChild(ref, "w")
		}
	}
	start := time.Now()
	last := start
	for k, kind := range stormKinds {
		for _, r := range picks[k*c.StormOps : (k+1)*c.StormOps] {
			req := tr.root("storm." + kind.String())
			id := tr.begin("update", "Session.op")
			var n *xmltree.Node
			var err error
			switch {
			case kind == workload.Skewed && skewRef != root:
				n, err = sess.InsertBefore(skewRef, "sk")
			case kind == workload.Churn && r>>16%100 < churnDeletePercent && ix.live > floor:
				// The fixed insertion point and its ancestors stay: one
				// unlucky delete would otherwise take the whole skewed
				// run of siblings, and with it most of the label growth
				// the storm measures, out of the document.
				if ref := ix.pick(r); ref != skewRef && !ref.IsAncestorOf(skewRef) {
					if n := countElements(ref); n <= churnSubtreeCap {
						ix.live -= n
						err = sess.Delete(ref)
						break
					}
				}
				fallthrough
			default:
				n, err = insert(ix.pick(r), r)
			}
			tr.end(id)
			tr.end(req)
			if err != nil {
				return 0, fmt.Errorf("%s op %d: %w", kind, sd.ops, err)
			}
			if n != nil {
				ix.add(n)
			}
			sd.ops++
			// One clock read per op: an op's latency runs from the end
			// of the one before it.
			now := time.Now()
			*lat = append(*lat, now.Sub(last))
			last = now
		}
	}
	return last.Sub(start), nil
}

// check is the storm's correctness check: labels in document order,
// and no label assigned twice.
func (sd *stormDoc) check() error {
	if err := labeling.VerifyOrder(sd.lab, sd.doc); err != nil {
		return err
	}
	seen := make(map[string]bool)
	var dup error
	sd.doc.WalkLabelled(func(n *xmltree.Node) bool {
		l := sd.lab.Label(n)
		if l == nil {
			dup = fmt.Errorf("unlabelled node %q", n.Name())
		} else if key := l.String(); seen[key] {
			dup = fmt.Errorf("label %s assigned twice", key)
		} else {
			seen[key] = true
		}
		return dup == nil
	})
	return dup
}

func (sd *stormDoc) counts() schemeCounts {
	st := sd.lab.Stats()
	return schemeCounts{Ops: sd.ops, Nodes: sd.doc.LabelledCount(), TotalBits: labeling.TotalBits(sd.lab, sd.doc),
		XMLBytes: len(sd.doc.XML()), Relabeled: st.Relabeled, Overflows: st.OverflowEvents, Assigned: st.Assigned}
}

// untracedStorm is the untraced run of label_storm. Its set-up is the
// building and labelling of the six base documents, which every pass
// repeats; its operation is one update through a session, and only the
// op loops count towards what an operation allocates; what it stores
// per user byte is labels: label bytes over serialized XML;
// label_bits_per_node is the mean over the six schemes.
func untracedStorm(c config, o runOpts, r *result) error {
	s, err := runStorm(c, o.Seed, o.measure(), nil)
	if err != nil {
		return err
	}
	var bits, relabels float64
	var labelBits, xmlBytes int
	for _, scheme := range stormSchemes {
		sc := s.counts[scheme]
		bits += sc.bitsPerNode() / float64(len(stormSchemes))
		relabels += ratio(float64(sc.Relabeled), float64(sc.Ops))
		labelBits += sc.TotalBits
		xmlBytes += sc.XMLBytes
		r.Exact["storm."+scheme+".total_bits"] = int64(sc.TotalBits)
		r.Exact["storm."+scheme+".nodes"] = int64(sc.Nodes)
		r.Exact["storm."+scheme+".relabeled"] = sc.Relabeled
		r.Exact["storm."+scheme+".overflows"] = sc.Overflows
	}
	r.Attempted = int64(len(s.lat))
	r.Counts["passes"] = int64(len(s.passes))
	r.set(endToEnd, "setup_s", s.setups.fastest().Seconds(), len(s.setups))
	r.setAllocs(memMark{}, s.mem, len(s.lat))
	r.set(endToEnd, "stored_bytes_per_user_byte", ratio(float64(labelBits)/8, float64(xmlBytes)), 0)
	r.set(endToEnd, "label_bits_per_node", bits, 0)
	r.detail("ops_per_s", s.opsPerSecond(), len(s.passes))
	r.detail("op_p50_us", us(s.lat.quantile(0.5)), len(s.lat))
	r.detail("label_ops_per_s", s.opsPerSecond(), len(s.passes))
	r.detail("relabels_per_op", relabels, 0)
	for _, f := range s.failures {
		r.fail(f)
	}
	return nil
}
