package core

import (
	"errors"
	"fmt"

	"xmldyn/internal/labeling"
	"xmldyn/internal/labels"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// ProbeConfig sizes the evaluation workloads.
type ProbeConfig struct {
	Seed       int64
	BaseNodes  int // persistence/orthogonality document size
	StormOps   int // random-storm length
	SkewedOps  int // fixed-position insertion count (§5.1 skewed)
	ZigzagOps  int // adversarial alternating insertions (overflow probe)
	XPathNodes int // document size for relationship sampling
}

// DefaultProbeConfig returns the standard probe sizes: large enough to
// trip every scheme's documented failure mode (QRS's ~52-step mantissa,
// ImprovedBinary's 255-bit length field) within a fast test run.
func DefaultProbeConfig() ProbeConfig {
	return ProbeConfig{
		Seed:       1,
		BaseNodes:  250,
		StormOps:   250,
		SkewedOps:  400,
		ZigzagOps:  120,
		XPathNodes: 60,
	}
}

func (c ProbeConfig) scaled(scale float64) ProbeConfig {
	if scale <= 0 || scale >= 1 {
		return c
	}
	s := func(v int) int {
		out := int(float64(v) * scale)
		if out < 8 {
			out = 8
		}
		return out
	}
	c.BaseNodes = s(c.BaseNodes)
	c.StormOps = s(c.StormOps)
	c.SkewedOps = s(c.SkewedOps)
	c.ZigzagOps = s(c.ZigzagOps)
	c.XPathNodes = s(c.XPathNodes)
	return c
}

// Report carries every measurement behind an Assessment so EXPERIMENTS
// can show the numbers, not just the grades.
type Report struct {
	Scheme string

	OrderPreserved bool
	OrderNote      string

	PersistenceChanged int   // pre-existing labels that changed value
	Relabeled          int64 // scheme-reported relabel count
	RelabelEvents      int64
	OverflowEvents     int64

	SupportsAD, SupportsPC, SupportsSib bool
	ADCorrect, PCCorrect, SibCorrect    bool
	LevelSupported, LevelCorrect        bool
	OrthogonalOK                        bool

	BulkMeanBits    float64
	RandomMeanBits  float64
	UniformMeanBits float64
	SkewedMeanBits  float64
	GrowthRatio     float64

	Divisions    int64
	MaxRecursion int
	TraitsSource string // "instrumented" or "declared"

	Notes []string
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// algebraProvider is implemented by labelings built over a code algebra.
type algebraProvider interface {
	Algebra() labels.Algebra
}

// Evaluate derives the measured Assessment for one scheme by running the
// framework probes. The returned Report carries the raw measurements.
func Evaluate(s SchemeUnderTest, cfg ProbeConfig) (Assessment, *Report, error) {
	cfg = cfg.scaled(s.Scale)
	rep := &Report{Scheme: s.Name, TraitsSource: "declared"}
	grades := make(map[Property]Compliance, len(AllProperties))

	if err := probePersistence(s, cfg, rep); err != nil {
		return Assessment{}, rep, fmt.Errorf("core: %s persistence probe: %w", s.Name, err)
	}
	if err := probeXPath(s, cfg, rep); err != nil {
		return Assessment{}, rep, fmt.Errorf("core: %s xpath probe: %w", s.Name, err)
	}
	if err := probeOverflow(s, cfg, rep); err != nil {
		return Assessment{}, rep, fmt.Errorf("core: %s overflow probe: %w", s.Name, err)
	}
	probeOrthogonal(s, cfg, rep)
	if err := probeCompact(s, cfg, rep); err != nil {
		return Assessment{}, rep, fmt.Errorf("core: %s compact probe: %w", s.Name, err)
	}

	// Persistent Labels: no existing label may move, and labels must be
	// dependable as identities (the LSDX uniqueness defect voids that).
	switch {
	case rep.PersistenceChanged == 0 && rep.Relabeled == 0 && s.UniqueLabels:
		grades[PersistentLabels] = Full
	default:
		grades[PersistentLabels] = None
	}

	// XPath Evaluations: F needs all three relationships from labels
	// alone; P needs at least ancestor-descendant.
	switch {
	case rep.ADCorrect && rep.PCCorrect && rep.SibCorrect:
		grades[XPathEvaluations] = Full
	case rep.ADCorrect:
		grades[XPathEvaluations] = Partial
	default:
		grades[XPathEvaluations] = None
	}

	if rep.LevelSupported && rep.LevelCorrect {
		grades[LevelEncoding] = Full
	} else {
		grades[LevelEncoding] = None
	}

	if rep.RelabelEvents == 0 && rep.OverflowEvents == 0 {
		grades[OverflowFree] = Full
	} else {
		grades[OverflowFree] = None
	}

	if rep.OrthogonalOK {
		grades[Orthogonal] = Full
	} else {
		grades[Orthogonal] = None
	}

	grades[CompactEncoding] = compactGrade(rep)

	if rep.Divisions == 0 {
		grades[DivisionFree] = Full
	} else {
		grades[DivisionFree] = None
	}
	if rep.MaxRecursion == 0 {
		grades[NonRecursiveInit] = Full
	} else {
		grades[NonRecursiveInit] = None
	}

	return Assessment{Scheme: s.Name, Order: s.Order, Encoding: s.Encoding, Grades: grades}, rep, nil
}

// compactGrade applies the thresholds docs/EXPERIMENTS.md documents: Full for
// labels within ~10 bytes that at most double under the worst §5.1
// scenario; Partial within 18 bytes and 6x growth; None beyond.
func compactGrade(rep *Report) Compliance {
	switch {
	case rep.BulkMeanBits <= 80 && rep.GrowthRatio <= 2.0:
		return Full
	case rep.BulkMeanBits <= 144 && rep.GrowthRatio <= 6.0:
		return Partial
	default:
		return None
	}
}

// --- persistence -------------------------------------------------------------

func probePersistence(s SchemeUnderTest, cfg ProbeConfig, rep *Report) error {
	doc := workload.BaseDocument(cfg.Seed, cfg.BaseNodes)
	sess, err := update.NewSession(doc, s.Factory())
	if err != nil {
		return err
	}
	lab := sess.Labeling()
	before := labeling.Snapshot(lab, doc)
	if _, err := workload.Apply(sess, workload.Spec{Kind: workload.Random, Ops: cfg.StormOps, Seed: cfg.Seed}); err != nil {
		return err
	}
	// A short fixed-position burst (60 ops reaches QRS's mantissa limit
	// without tripping ImprovedBinary's 255-bit field).
	skew := 60
	if cfg.SkewedOps < skew {
		skew = cfg.SkewedOps
	}
	if _, err := workload.Apply(sess, workload.Spec{Kind: workload.Skewed, Ops: skew, Seed: cfg.Seed + 1}); err != nil {
		return err
	}
	after := labeling.Snapshot(lab, doc)
	changed := 0
	for n, old := range before {
		if now, ok := after[n]; ok && now != old {
			changed++
		}
	}
	st := lab.Stats()
	rep.PersistenceChanged = changed
	rep.Relabeled = st.Relabeled
	rep.RelabelEvents += st.RelabelEvents
	rep.OverflowEvents += st.OverflowEvents
	if err := sess.Verify(); err != nil {
		rep.OrderPreserved = false
		rep.OrderNote = err.Error()
		if s.UniqueLabels {
			return fmt.Errorf("document order lost: %w", err)
		}
		rep.notef("order violated (documented uniqueness defect): %v", err)
	} else {
		rep.OrderPreserved = true
	}
	collectCounters(lab, rep)
	return nil
}

// --- xpath + level -----------------------------------------------------------

func probeXPath(s SchemeUnderTest, cfg ProbeConfig, rep *Report) error {
	doc := xmltree.Generate(xmltree.GenOptions{
		Seed: cfg.Seed + 2, MaxDepth: 5, MaxChildren: 4, AttrProb: 0.3,
		TargetNodes: cfg.XPathNodes,
	})
	lab := s.Factory()
	if err := lab.Build(doc); err != nil {
		return err
	}
	ad, adOK := lab.(labeling.AncestorByLabel)
	pc, pcOK := lab.(labeling.ParentByLabel)
	sib, sibOK := lab.(labeling.SiblingByLabel)
	lv, lvOK := lab.(labeling.LevelByLabel)
	rep.SupportsAD, rep.SupportsPC, rep.SupportsSib, rep.LevelSupported = adOK, pcOK, sibOK, lvOK
	rep.ADCorrect, rep.PCCorrect, rep.SibCorrect, rep.LevelCorrect = adOK, pcOK, sibOK, lvOK

	nodes := doc.LabelledNodes()
	for _, u := range nodes {
		lu := lab.Label(u)
		if lvOK {
			if got, ok := lv.Level(lu); !ok || got != u.Depth() {
				rep.LevelCorrect = false
			}
		}
		for _, v := range nodes {
			if u == v {
				continue
			}
			lv2 := lab.Label(v)
			if adOK && ad.IsAncestor(lu, lv2) != u.IsAncestorOf(v) {
				rep.ADCorrect = false
			}
			if pcOK && pc.IsParent(lu, lv2) != (xmltree.LabelledParent(v) == u) {
				rep.PCCorrect = false
			}
			if sibOK {
				truth := u != v && xmltree.LabelledParent(u) == xmltree.LabelledParent(v) &&
					xmltree.LabelledParent(u) != nil
				if sib.IsSibling(lu, lv2) != truth {
					rep.SibCorrect = false
				}
			}
		}
	}
	return nil
}

// --- overflow ----------------------------------------------------------------

func probeOverflow(s SchemeUnderTest, cfg ProbeConfig, rep *Report) error {
	doc := workload.BaseDocument(cfg.Seed+3, cfg.BaseNodes/2)
	sess, err := update.NewSession(doc, s.Factory())
	if err != nil {
		return err
	}
	lab := sess.Labeling()
	if _, err := workload.Apply(sess, workload.Spec{Kind: workload.Skewed, Ops: cfg.SkewedOps, Seed: cfg.Seed + 3}); err != nil {
		// A hard failure under insertion pressure is itself an
		// overflow finding, not a probe error.
		if errors.Is(err, labels.ErrOverflow) {
			rep.OverflowEvents++
			rep.notef("hard overflow during skewed storm: %v", err)
		} else {
			return err
		}
	}
	if err := zigzag(sess, cfg.ZigzagOps, rep); err != nil {
		return err
	}
	if _, err := workload.Apply(sess, workload.Spec{Kind: workload.Uniform, Ops: cfg.StormOps / 2, Seed: cfg.Seed + 4}); err != nil {
		if errors.Is(err, labels.ErrOverflow) {
			rep.OverflowEvents++
			rep.notef("hard overflow during uniform storm: %v", err)
		} else {
			return err
		}
	}
	st := lab.Stats()
	rep.RelabelEvents += st.RelabelEvents
	rep.OverflowEvents += st.OverflowEvents
	collectCounters(lab, rep)
	return nil
}

// zigzag alternates insertion sides between two fixed outer neighbours:
// the adversarial pattern that drives caret chains (ORDPATH), code
// lengths (binary/quaternary strings) and mediant components (vector,
// where Fibonacci growth crosses the UTF-8 ceiling — the §4 question).
func zigzag(sess *update.Session, ops int, rep *Report) error {
	doc := sess.Document()
	anchor := doc.Root().FirstChild()
	if anchor == nil {
		var err error
		anchor, err = sess.AppendChild(doc.Root(), "z")
		if err != nil {
			return err
		}
	}
	ref := anchor
	before := true
	for i := 0; i < ops; i++ {
		var n *xmltree.Node
		var err error
		if before {
			n, err = sess.InsertBefore(ref, "z")
		} else {
			n, err = sess.InsertAfter(ref, "z")
		}
		if err != nil {
			if errors.Is(err, labels.ErrOverflow) {
				rep.OverflowEvents++
				rep.notef("hard overflow during zigzag at step %d: %v", i, err)
				return nil
			}
			return err
		}
		ref = n
		before = !before
	}
	return nil
}

// --- orthogonality -----------------------------------------------------------

func probeOrthogonal(s SchemeUnderTest, cfg ProbeConfig, rep *Report) {
	if s.RangeFactory == nil {
		return
	}
	doc := workload.BaseDocument(cfg.Seed+5, cfg.BaseNodes/2)
	sess, err := update.NewSession(doc, s.RangeFactory())
	if err != nil {
		rep.notef("range mounting failed to build: %v", err)
		return
	}
	if _, err := workload.Apply(sess, workload.Spec{Kind: workload.Random, Ops: 40, Seed: cfg.Seed + 5}); err != nil {
		rep.notef("range mounting failed under updates: %v", err)
		return
	}
	if err := sess.Verify(); err != nil {
		rep.notef("range mounting lost order: %v", err)
		return
	}
	rep.OrthogonalOK = true
}

// --- compactness -------------------------------------------------------------

func probeCompact(s SchemeUnderTest, cfg ProbeConfig, rep *Report) error {
	depth, fanout := 5, 4
	if s.Scale > 0 && s.Scale < 1 {
		depth = 3
	}
	bulkDoc := xmltree.GenerateBalanced(depth, fanout)
	bulkLab := s.Factory()
	if err := bulkLab.Build(bulkDoc); err != nil {
		return err
	}
	rep.BulkMeanBits = labeling.MeanBits(bulkLab, bulkDoc)
	collectCounters(bulkLab, rep)

	run := func(kind workload.Kind, seed int64) (float64, error) {
		doc := xmltree.GenerateBalanced(depth, fanout)
		sess, err := update.NewSession(doc, s.Factory())
		if err != nil {
			return 0, err
		}
		before := labeling.Snapshot(sess.Labeling(), doc)
		ops := cfg.StormOps / 2
		if kind == workload.Skewed {
			ops = cfg.SkewedOps / 2
		}
		if _, err := workload.Apply(sess, workload.Spec{Kind: kind, Ops: ops, Seed: seed}); err != nil {
			if errors.Is(err, labels.ErrOverflow) {
				rep.notef("compact %s storm stopped by overflow: %v", kind, err)
			} else {
				return 0, err
			}
		}
		// Measure the labels created by the storm, not the diluted
		// whole-document mean.
		total, count := 0, 0
		doc.WalkLabelled(func(n *xmltree.Node) bool {
			if _, existed := before[n]; existed {
				return true
			}
			if l := sess.Labeling().Label(n); l != nil {
				total += l.Bits()
				count++
			}
			return true
		})
		collectCounters(sess.Labeling(), rep)
		if count == 0 {
			return rep.BulkMeanBits, nil
		}
		return float64(total) / float64(count), nil
	}
	var err error
	if rep.RandomMeanBits, err = run(workload.Random, cfg.Seed+6); err != nil {
		return err
	}
	if rep.UniformMeanBits, err = run(workload.Uniform, cfg.Seed+7); err != nil {
		return err
	}
	if rep.SkewedMeanBits, err = run(workload.Skewed, cfg.Seed+8); err != nil {
		return err
	}
	worst := rep.RandomMeanBits
	if rep.UniformMeanBits > worst {
		worst = rep.UniformMeanBits
	}
	if rep.SkewedMeanBits > worst {
		worst = rep.SkewedMeanBits
	}
	if rep.BulkMeanBits > 0 {
		rep.GrowthRatio = worst / rep.BulkMeanBits
	}
	return nil
}

// collectCounters folds the division/recursion counters of a labeling's
// algebra into the report. An algebra without counters never divides or
// recurses; a labeling without an algebra (prime, dde,
// xpath-accelerator) leaves the report "declared", with none of either.
func collectCounters(lab labeling.Interface, rep *Report) {
	ap, ok := lab.(algebraProvider)
	if !ok {
		return
	}
	rep.TraitsSource = "instrumented"
	cp, ok := ap.Algebra().(interface{ Counters() *labels.Counters })
	if !ok {
		return
	}
	c := cp.Counters()
	rep.Divisions += c.Divisions
	if c.MaxRecursion > rep.MaxRecursion {
		rep.MaxRecursion = c.MaxRecursion
	}
}
