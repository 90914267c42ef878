// Command xbench runs the experiment suite documented in
// docs/EXPERIMENTS.md as measured tables: the paper's qualitative
// claims C1-C8 (indexed there under "Claims index and documented
// substitutions") and the hypothesis-driven experiments about this
// engine — C14 snapshot-pin tail latency under Zipf vs uniform
// popularity, C15 incremental-checkpoint cost vs dirty-set skew, and
// C16 follower replication lag vs leader commit rate across fsync
// policies. The ids C9-C13 are retired, not reused: docs/EXPERIMENTS.md
// names the ./bench metric that answers each of their questions.
//
// Usage:
//
//	xbench              # run every experiment
//	xbench -exp C6      # run one experiment
//	xbench -quick       # smaller workloads
//	xbench -exp C14 -smoke  # tiniest scale, one convergence round (CI)
//	xbench -exp C14 -cpuprofile cpu.pb.gz   # profile one experiment
//	xbench -exp C14 -memprofile mem.pb.gz   # heap profile at exit
//
// The profiles are standard runtime/pprof output; inspect them with
// `go tool pprof <binary|.> cpu.pb.gz`. docs/OPERATIONS.md §8 walks
// through the workflow.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"xmldyn/internal/core"
	"xmldyn/internal/experiments"
	"xmldyn/internal/harness"
)

func main() {
	exp := flag.String("exp", "", "experiment id ("+idList(runners(false, false))+"); empty runs all")
	quick := flag.Bool("quick", false, "smaller workloads")
	smoke := flag.Bool("smoke", false, "tiniest workloads, single convergence round (CI experiment-smoke)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
	}
	err := run(strings.ToUpper(*exp), *quick, *smoke)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr == nil {
			runtime.GC() // settle the heap so the profile shows live data
			merr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
		}
		if merr != nil && err == nil {
			err = merr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(1)
	}
}

// runner is one row of the experiment table: an id of
// docs/EXPERIMENTS.md and the function that measures it.
type runner struct {
	id string
	fn func() (experiments.Table, error)
}

// runners is the experiment table at one scale. Its ids are what the
// unknown-id error lists and what docs/EXPERIMENTS.md must document
// (TestExperimentIDsMatchDoc).
func runners(quick, smoke bool) []runner {
	storms := 60
	qedOps := 10000
	growth := []int{10, 100, 1000, 5000}
	latDocs, latOps := 64, 6000
	ckptDocs, ckptCommits, ckptCycles := 64, 100, 8
	ckptSkews := []float64{0, 1.1, 1.5, 2.0}
	repDocs, repCommits, repBatch := 8, 400, 16
	rule := harness.ConvergeRule{MinRounds: 3, MaxRounds: 6, Tolerance: 0.5}
	cfg := core.DefaultProbeConfig()
	if smoke {
		quick = true // smoke implies the quick scale for C1-C8
	}
	if quick {
		storms = 15
		qedOps = 1500
		growth = []int{10, 100, 1000}
		latDocs, latOps = 24, 1200
		ckptDocs, ckptCommits, ckptCycles = 32, 40, 4
		ckptSkews = []float64{0, 1.2, 2.0}
		repDocs, repCommits, repBatch = 4, 120, 8
		rule = harness.ConvergeRule{MinRounds: 2, MaxRounds: 3, Tolerance: 0.75}
		cfg.BaseNodes, cfg.StormOps, cfg.SkewedOps, cfg.ZigzagOps, cfg.XPathNodes = 100, 100, 300, 100, 36
	}
	if smoke {
		// One round at the tiniest scale: CI's experiment-smoke step
		// proves the pipeline runs end to end, not that the numbers
		// converge (a shared runner can't promise stable tails).
		latDocs, latOps = 8, 200
		ckptDocs, ckptCommits, ckptCycles = 8, 12, 2
		ckptSkews = []float64{0, 2.0}
		repDocs, repCommits, repBatch = 2, 24, 4
		rule = harness.ConvergeRule{MinRounds: 1, MaxRounds: 1, Tolerance: 1}
	}
	return []runner{
		{"C1", experiments.C1GapExhaustion},
		{"C2", experiments.C2DeweyRelabel},
		{"C3", experiments.C3OrdpathWaste},
		{"C4", func() (experiments.Table, error) { return experiments.C4LSDXCollision(storms) }},
		{"C5", func() (experiments.Table, error) { return experiments.C5QEDNoRelabel(qedOps) }},
		{"C6", func() (experiments.Table, error) { return experiments.C6SkewedGrowth(growth) }},
		{"C7", experiments.C7CDBSCompact},
		{"C8", func() (experiments.Table, error) {
			t, _, err := experiments.C8Matrix(cfg)
			return t, err
		}},
		{"C14", func() (experiments.Table, error) { return experiments.C14TailLatency(latDocs, latOps, rule) }},
		{"C15", func() (experiments.Table, error) {
			return experiments.C15CheckpointSkew(ckptDocs, ckptCommits, ckptCycles, ckptSkews, rule)
		}},
		{"C16", func() (experiments.Table, error) {
			return experiments.C16ReplicationLag(repDocs, repCommits, repBatch, rule)
		}},
	}
}

// idList renders the table's ids for the flag help and the unknown-id
// error.
func idList(rs []runner) string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.id
	}
	return strings.Join(ids, " ")
}

func run(exp string, quick, smoke bool) error {
	rs := runners(quick, smoke)
	ran := 0
	for _, r := range rs {
		if exp != "" && r.id != exp {
			continue
		}
		t, err := r.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		fmt.Println(t)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (valid ids: %s)", exp, idList(rs))
	}
	return nil
}
