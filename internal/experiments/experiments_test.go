package experiments

import (
	"strconv"
	"strings"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/harness"
)

func cell(t *testing.T, tb Table, row, col int) string {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d):\n%s", tb.ID, row, col, tb)
	}
	return tb.Rows[row][col]
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func TestC1GapExhaustion(t *testing.T) {
	tb, err := C1GapExhaustion()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	// Larger gaps absorb more insertions, but all eventually relabel.
	gap4 := atoi(t, cell(t, tb, 0, 1))
	gap16 := atoi(t, cell(t, tb, 1, 1))
	gap256 := atoi(t, cell(t, tb, 2, 1))
	if !(gap4 < gap16 && gap16 < gap256) {
		t.Errorf("gap ordering: %d %d %d", gap4, gap16, gap256)
	}
	if gap256 >= 5000 {
		t.Errorf("gap 256 never exhausted: %d", gap256)
	}
	// QRS exhausts near half the 52-bit mantissa: every node insertion
	// consumes two midpoints (begin and end of the new interval).
	qrs := atoi(t, cell(t, tb, 3, 1))
	if qrs < 20 || qrs > 35 {
		t.Errorf("QRS absorbed %d, want ~26 (two halvings per insert)", qrs)
	}
	// Relabel cost is non-zero at each event.
	for i := range tb.Rows {
		if atoi(t, cell(t, tb, i, 2)) == 0 {
			t.Errorf("row %d relabelled 0 nodes", i)
		}
	}
}

func TestC2DeweyRelabel(t *testing.T) {
	tb, err := C2DeweyRelabel()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	byKey := map[string]int{}
	for _, r := range tb.Rows {
		byKey[r[0]+"/"+r[1]] = atoi(t, r[2])
	}
	// Front insert relabels everything; append relabels nothing;
	// middle relabels about half.
	if byKey["1000/front"] != 1000 {
		t.Errorf("front/1000 relabelled %d", byKey["1000/front"])
	}
	if byKey["1000/append"] != 0 {
		t.Errorf("append/1000 relabelled %d", byKey["1000/append"])
	}
	mid := byKey["1000/middle"]
	if mid < 400 || mid > 600 {
		t.Errorf("middle/1000 relabelled %d, want ~500", mid)
	}
}

func TestC3OrdpathWaste(t *testing.T) {
	tb, err := C3OrdpathWaste()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tb.Rows {
		n := atoi(t, r[0])
		last := atoi(t, r[1])
		if last != 2*n-1 {
			t.Errorf("row %d: ORDPATH last = %d, want %d", i, last, 2*n-1)
		}
		// CDQS total is smaller than ORDPATH's compressed total.
		if atoi(t, r[4]) >= atoi(t, r[3]) {
			t.Errorf("row %d: CDQS %s !< ORDPATH %s", i, r[4], r[3])
		}
	}
}

func TestC4LSDXCollision(t *testing.T) {
	tb, err := C4LSDXCollision(20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cell(t, tb, 0, 1), "DUPLICATE") {
		t.Errorf("witness: %s", cell(t, tb, 0, 1))
	}
	fuzz := cell(t, tb, 1, 1)
	if strings.HasPrefix(fuzz, "0/") {
		t.Errorf("fuzz found no collisions: %s", fuzz)
	}
}

func TestC5QEDNoRelabel(t *testing.T) {
	tb, err := C5QEDNoRelabel(800)
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tb, 0, 2); got != "0" {
		t.Errorf("QED relabelled %s nodes", got)
	}
	if got := cell(t, tb, 1, 2); got != "0" {
		t.Errorf("CDQS relabelled %s nodes", got)
	}
	if got := atoi(t, cell(t, tb, 2, 2)); got == 0 {
		t.Error("DeweyID baseline relabelled nothing")
	}
}

func TestC6SkewedGrowth(t *testing.T) {
	tb, err := C6SkewedGrowth([]int{10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	// At k=1000: QED bits ~linear (>= 1000), vector logarithmic (< 64).
	last := tb.Rows[len(tb.Rows)-1]
	qedBits := atoi(t, last[1])
	vecBits := atoi(t, last[3])
	ddeBits := atoi(t, last[4])
	if qedBits < 1000 {
		t.Errorf("QED bits at k=1000: %d, expected linear growth", qedBits)
	}
	if vecBits >= 64 {
		t.Errorf("vector bits at k=1000: %d, expected logarithmic", vecBits)
	}
	if float64(qedBits)/float64(vecBits) < 10 {
		t.Errorf("growth separation too small: qed=%d vector=%d", qedBits, vecBits)
	}
	if ddeBits >= 64 {
		t.Errorf("DDE bits at k=1000: %d, expected logarithmic", ddeBits)
	}
}

func TestC7CDBSCompact(t *testing.T) {
	tb, err := C7CDBSCompact()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tb.Rows {
		if atoi(t, r[1]) >= atoi(t, r[3]) {
			t.Errorf("row %d: CDBS %s !< QED %s", i, r[1], r[3])
		}
	}
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "overflows after") {
		t.Errorf("missing overflow note: %v", tb.Notes)
	}
}

func TestC8Matrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix evaluation in -short mode")
	}
	cfg := core.DefaultProbeConfig()
	cfg.BaseNodes = 100
	cfg.StormOps = 100
	cfg.SkewedOps = 300
	cfg.ZigzagOps = 100
	cfg.XPathNodes = 36
	tb, measured, err := C8Matrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(measured) != len(core.Registry()) {
		t.Fatalf("measured %d schemes", len(measured))
	}
	// Agreement must stay high: no more than 12 divergent cells of 120.
	if len(tb.Rows) > 12 {
		t.Errorf("too many divergences (%d):\n%s", len(tb.Rows), tb)
	}
	out := tb.String()
	if !strings.Contains(out, "most generic scheme = cdqs") {
		t.Errorf("analysis notes missing:\n%s", out)
	}
}

func TestTableString(t *testing.T) {
	tb := Table{
		ID: "X", Claim: "demo",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n1"},
	}
	out := tb.String()
	for _, needle := range []string{"[X] demo", "a", "333", "note: n1"} {
		if !strings.Contains(out, needle) {
			t.Errorf("missing %q in:\n%s", needle, out)
		}
	}
}

// TestC14TailLatency runs the snapshot-pin tail-latency experiment at
// smoke scale: both distributions must produce rows for every timed op
// class and the notes must carry the H-C14 verdict and convergence
// line.
func TestC14TailLatency(t *testing.T) {
	rule := harnessSmokeRule()
	tab, err := C14TailLatency(8, 160, rule)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]map[string]bool{"uniform": {}, "zipf": {}}
	for _, row := range tab.Rows {
		seen[row[0]][row[1]] = true
		if atoi(t, row[2]) <= 0 {
			t.Errorf("row %v: zero samples", row)
		}
	}
	for dist, ops := range seen {
		for _, op := range []string{"query", "snapshot-pin", "batch", "multibatch"} {
			if !ops[op] {
				t.Errorf("%s: no %s row in\n%s", dist, op, tab)
			}
		}
	}
	out := tab.String()
	for _, needle := range []string{"hypothesis H-C14", "convergence:", "per op type"} {
		if !strings.Contains(out, needle) {
			t.Errorf("missing %q in:\n%s", needle, out)
		}
	}
}

// TestC15CheckpointSkew runs the dirty-set-skew experiment at smoke
// scale: one row per skew level, the skewed dirty set must be strictly
// smaller than the uniform one, and the notes must carry the H-C15
// verdict.
func TestC15CheckpointSkew(t *testing.T) {
	rule := harnessSmokeRule()
	tab, err := C15CheckpointSkew(16, 24, 2, []float64{0, 2.0}, rule)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", len(tab.Rows), tab)
	}
	uniformDirty, _ := strconv.ParseFloat(tab.Rows[0][2], 64)
	skewedDirty, _ := strconv.ParseFloat(tab.Rows[1][2], 64)
	if skewedDirty >= uniformDirty {
		t.Errorf("zipf(2.0) dirty set %.1f not smaller than uniform %.1f:\n%s", skewedDirty, uniformDirty, tab)
	}
	if !strings.Contains(tab.String(), "hypothesis H-C15") {
		t.Errorf("missing verdict note:\n%s", tab)
	}

	if _, err := C15CheckpointSkew(4, 4, 1, []float64{1.0}, rule); err == nil {
		t.Error("single skew level accepted")
	}
}

// harnessSmokeRule is the one-round convergence rule the tiny-scale
// experiment tests share.
func harnessSmokeRule() harness.ConvergeRule {
	return harness.ConvergeRule{MinRounds: 1, MaxRounds: 1, Tolerance: 1}
}

// TestC16ReplicationLag runs the replication-lag experiment at smoke
// scale: one row per fsync policy, every cold-attach lag target must
// be positive (the fresh follower genuinely had a stream to drain),
// and the notes must carry the H-C16 verdict and the convergence line.
func TestC16ReplicationLag(t *testing.T) {
	rule := harnessSmokeRule()
	tab, err := C16ReplicationLag(2, 12, 4, rule)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want one per fsync policy:\n%s", len(tab.Rows), tab)
	}
	for _, row := range tab.Rows {
		coldLag, _ := strconv.ParseFloat(row[8], 64)
		if coldLag <= 0 {
			t.Errorf("policy %s: cold-attach lag target %v not positive:\n%s", row[0], row[8], tab)
		}
	}
	for _, needle := range []string{"hypothesis H-C16", "convergence:"} {
		if !strings.Contains(tab.String(), needle) {
			t.Errorf("missing note %q:\n%s", needle, tab)
		}
	}
}
