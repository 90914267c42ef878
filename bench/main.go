// Command bench is the repository's benchmark (BENCHMARK.json names it
// to the driver; README.md is the glossary). It runs six seeded,
// closed-loop workloads against the facade and reports, per run, every
// end-to-end metric (untraced) or every per-layer metric (-trace 1),
// after checking that what the store returned is correct. It claims
// nothing: it is the instrument later changes are measured with.
//
//	go run ./bench                                   every workload, untraced, JSON document on stdout
//	go run ./bench -trace 1                          every workload, traced: per-layer metrics, bench/out/trace-*.jsonl
//	go run ./bench -workload commit_hot -seed 7      one workload; stdout is the driver's one-line result
//	go run ./bench -repeat 2                         two sets of runs, compared against the benchmark's own bounds
//	go run ./bench -spec                             BENCHMARK.json as spec.go declares it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the driver's one-line result (default: all six)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", runSeconds, "how long one run's measured stage lasts")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		repeat  = flag.Int("repeat", 1, "run the set this many times and compare the sets against the bounds")
		out     = flag.String("out", filepath.Join("bench", "out"), "directory for scratch data and trace files")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as spec.go declares it and exit")
	)
	flag.Parse()
	if *spec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkSpec()); err != nil {
			die(err)
		}
		return
	}
	if flag.NArg() > 0 || *repeat < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-repeat n]")
		os.Exit(2)
	}
	set := workloads
	if *name != "" {
		c, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		set = []config{c}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		die(err)
	}
	opts := runOpts{Seed: *seed, Seconds: *seconds, OutDir: *out}

	var sets [][]*result
	ok := true
	for rep := 0; rep < *repeat; rep++ {
		var results []*result
		for _, c := range set {
			r, err := runOne(c, opts, *trace == 1)
			if err != nil {
				die(fmt.Errorf("%s: %w", c.Name, err))
			}
			printTable(os.Stderr, r)
			ok = ok && r.Correct && r.Failed == 0
			results = append(results, r)
		}
		sets = append(sets, results)
	}

	if *name != "" && *repeat == 1 {
		printDriverLine(sets[0][0])
	} else {
		doc := suiteDoc{Env: environment(*out), Seconds: *seconds, Sets: sets}
		if *repeat > 1 && *trace == 0 {
			doc.Repeat = compareSets(sets)
			printRepeat(os.Stderr, doc.Repeat)
			for _, row := range doc.Repeat {
				ok = ok && row.Within
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(doc); err != nil {
			die(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// die reports an error that leaves no result to print.
func die(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one workload once, traced or not, and checks that it
// reported exactly the metrics it declares.
func runOne(c config, o runOpts, traced bool) (*result, error) {
	start := time.Now()
	run, defs := runUntraced, endToEnd
	if traced {
		run, defs = runTraced, perLayer
	}
	r, err := run(c, o)
	if err != nil {
		return nil, err
	}
	r.WallS = time.Since(start).Seconds()
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			r.fail("metric " + d.Name + " was not reported")
		} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric " + d.Name + " is not a number")
		}
	}
	if r.Attempted < 1 {
		r.fail("no operation was attempted")
	}
	return r, nil
}

// printDriverLine prints the one JSON object the driver reads: exactly
// the keys correct, attempted, failed and metrics.
func printDriverLine(r *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		die(err)
	}
	fmt.Println(string(b))
}

// suiteDoc is the machine-readable result of a whole invocation. The
// benchmark claims nothing: Claim is always null.
type suiteDoc struct {
	Env     map[string]string `json:"environment"`
	Seconds float64           `json:"seconds"`
	Sets    [][]*result       `json:"sets"`
	Repeat  []repeatRow       `json:"repeat,omitempty"`
	Claim   *string           `json:"claim"`
}

// environment describes the machine the numbers belong to. Latencies
// are this sandbox's, not a device's.
func environment(dir string) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     "unknown",
		"filesystem": filesystemOf(dir),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

// filesystemOf names the filesystem type dir lives on, from the mount
// table (Linux; "unknown" elsewhere).
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if mp := f[1]; len(mp) >= len(best) && (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// printTable writes one run's metrics for people.
func printTable(w *os.File, r *result) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "\n%s  seed %d  %s  %.1fs  attempted %d  failed %d  correct %v  stream %s\n",
		r.Workload, r.Seed, kind, r.WallS, r.Attempted, r.Failed, r.Correct, r.StreamHash)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	rows := func(set map[string]metric, note string) {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			fmt.Fprintf(tw, "  %s\t%.4f\t%s\tn=%d\t%s\n", name, m.Value, m.Unit, m.Samples, note)
		}
	}
	if r.Op != "" {
		rows(r.Metrics, "op = "+r.Op)
	} else {
		rows(r.Metrics, "")
	}
	rows(r.Detail, "detail")
	tw.Flush()
	counts := make([]string, 0, len(r.Counts))
	for name, n := range r.Counts {
		counts = append(counts, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(counts)
	fmt.Fprintf(w, "  counts: %s\n", strings.Join(counts, " "))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", f)
	}
}

// repeatRow compares one end-to-end metric of one workload across the
// sets of a -repeat invocation.
type repeatRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Spread   float64   `json:"spread"` // (max - min) / min
	Bound    float64   `json:"bound"`
	Within   bool      `json:"within"`
}

// compareSets checks repeatability: every end-to-end metric must agree
// between the sets within its own bound, and every exact count must
// agree exactly (reported as a row with bound 0).
func compareSets(sets [][]*result) []repeatRow {
	var rows []repeatRow
	for i, first := range sets[0] {
		for _, d := range endToEnd {
			row := repeatRow{Workload: first.Workload, Metric: d.Name, Bound: d.Bound}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, set := range sets {
				v := set[i].Metrics[d.Name].Value
				row.Values = append(row.Values, v)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			row.Spread = ratio(hi-lo, math.Abs(lo))
			row.Within = row.Spread <= d.Bound
			rows = append(rows, row)
		}
		counts := make([]string, 0, len(first.Exact))
		for name := range first.Exact {
			counts = append(counts, name)
		}
		sort.Strings(counts)
		for _, name := range counts {
			row := repeatRow{Workload: first.Workload, Metric: name, Within: true}
			for _, set := range sets {
				v := set[i].Exact[name]
				row.Values = append(row.Values, float64(v))
				row.Within = row.Within && v == first.Exact[name]
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func printRepeat(w *os.File, rows []repeatRow) {
	fmt.Fprintln(w, "\nrepeatability (spread = (max-min)/min across sets; exact counts have bound 0)")
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, row := range rows {
		verdict := "ok"
		if !row.Within {
			verdict = "OUTSIDE BOUND"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.4f\t%.2f\t%s\n", row.Workload, row.Metric, row.Spread, row.Bound, verdict)
	}
	tw.Flush()
}
