package core

import (
	"strings"
	"testing"
)

// fastConfig keeps the full probe suite quick in unit tests; the bench
// harness runs the default sizes.
func fastConfig() ProbeConfig {
	cfg := DefaultProbeConfig()
	cfg.BaseNodes = 120
	cfg.StormOps = 120
	cfg.SkewedOps = 300 // still past ImprovedBinary's 255-bit field
	cfg.ZigzagOps = 100 // still past ORDPATH's caret-chain budget
	cfg.XPathNodes = 40
	return cfg
}

// TestEvaluateAgainstPublished measures every Figure 7 scheme and
// checks the columns that must agree exactly; the judgement-based
// compact column and the documented divergences (docs/EXPERIMENTS.md, C8) are
// asserted separately.
func TestEvaluateAgainstPublished(t *testing.T) {
	if testing.Short() {
		t.Skip("probe suite in -short mode")
	}
	// Cells where our measurement legitimately diverges from Figure 7;
	// each carries the docs/EXPERIMENTS.md explanation.
	documented := map[string]map[Property]bool{
		"sector":         {CompactEncoding: true, NonRecursiveInit: true},
		"qrs":            {DivisionFree: true},
		"ordpath":        {CompactEncoding: true},
		"dln":            {CompactEncoding: true},
		"qed":            {CompactEncoding: true},
		"improvedbinary": {CompactEncoding: true},
		"cdqs":           {CompactEncoding: true, DivisionFree: true, NonRecursiveInit: true},
		"vector":         {OverflowFree: true},
	}
	for _, s := range Registry() {
		if !s.InMatrix {
			continue
		}
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			measured, rep, err := Evaluate(s, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			published, ok := PublishedRow(s.Name)
			if !ok {
				t.Fatalf("no published row for %s", s.Name)
			}
			if measured.Order != published.Order || measured.Encoding != published.Encoding {
				t.Errorf("classification: measured %s/%s, published %s/%s",
					measured.Order, measured.Encoding, published.Order, published.Encoding)
			}
			for _, p := range AllProperties {
				if measured.Grades[p] == published.Grades[p] {
					continue
				}
				if documented[s.Name][p] {
					t.Logf("documented divergence on %s: measured %s, published %s",
						p, measured.Grades[p], published.Grades[p])
					continue
				}
				t.Errorf("%s: measured %s, published %s (report: %+v)",
					p, measured.Grades[p], published.Grades[p], *rep)
			}
		})
	}
}

// TestEvaluateExtras runs the measured-only schemes end to end.
func TestEvaluateExtras(t *testing.T) {
	if testing.Short() {
		t.Skip("probe suite in -short mode")
	}
	expectations := map[string]map[Property]Compliance{
		// CDBS: persistent until overflow, overflow-prone, orthogonal,
		// compact, division-free, non-recursive.
		"cdbs": {OverflowFree: None, Orthogonal: Full, DivisionFree: Full, NonRecursiveInit: Full},
		// Prime: persistent, divisibility AD, level stored, never
		// overflows (fresh primes always exist).
		"prime": {PersistentLabels: Full, OverflowFree: Full, XPathEvaluations: Partial},
		// DDE: fully dynamic labels, full XPath from labels. (The
		// overflow grade depends on component width: int64 mediant
		// components explode under adversarial zigzag, so OverflowFree
		// is reported, not asserted — see docs/EXPERIMENTS.md, C6.)
		"dde": {PersistentLabels: Full, XPathEvaluations: Full, LevelEncoding: Full},
		// Com-D inherits the LSDX uniqueness defect: not persistent.
		"com-d": {PersistentLabels: None},
	}
	for name, want := range expectations {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, ok := SchemeByName(name)
			if !ok {
				t.Fatalf("missing registry entry %s", name)
			}
			measured, rep, err := Evaluate(s, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			for p, g := range want {
				if measured.Grades[p] != g {
					t.Errorf("%s: measured %s, want %s (report %+v)", p, measured.Grades[p], g, *rep)
				}
			}
		})
	}
}

// TestQEDAndCDQSMeasureOverflowFree pins the §4 headline: the two
// quaternary schemes survive every storm with zero relabels.
func TestQEDAndCDQSMeasureOverflowFree(t *testing.T) {
	if testing.Short() {
		t.Skip("probe suite in -short mode")
	}
	for _, name := range []string{"qed", "cdqs"} {
		s, _ := SchemeByName(name)
		measured, rep, err := Evaluate(s, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		if measured.Grades[OverflowFree] != Full {
			t.Errorf("%s overflow grade %s (report %+v)", name, measured.Grades[OverflowFree], *rep)
		}
		if measured.Grades[PersistentLabels] != Full {
			t.Errorf("%s persistence grade %s", name, measured.Grades[PersistentLabels])
		}
	}
}

func TestRenderReport(t *testing.T) {
	s, _ := SchemeByName("deweyid")
	cfg := fastConfig()
	cfg.StormOps = 40
	cfg.SkewedOps = 40
	_, rep, err := Evaluate(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderReport(&sb, rep); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"scheme deweyid", "persistence:", "bits:"} {
		if !strings.Contains(sb.String(), needle) {
			t.Errorf("report missing %q:\n%s", needle, sb.String())
		}
	}
}
