package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"xmldyn"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// smokeScale shrinks every workload's fixed work, smoke its measured
// stage to a fraction of a second.
const smokeScale = 0.02

func smoke(t *testing.T) runOpts {
	return runOpts{Seed: 1, Seconds: 0.3, OutDir: t.TempDir()}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json the file `-spec` prints, and
// the declarations within the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk specFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	spec := benchmarkSpec()
	if !reflect.DeepEqual(onDisk, spec) {
		t.Errorf("BENCHMARK.json is not what spec.go declares; regenerate it with `go run ./bench -spec > BENCHMARK.json`")
	}
	if len(data) > 64<<10 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("BENCHMARK.json: %d bytes, run_seconds %d", len(data), spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("%s %q: bad or repeated name", kind, n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound != nil {
			if *m.Bound <= 0 || *m.Bound > 0.25 {
				t.Errorf("metric %s: bound %v", m.Name, *m.Bound)
			}
			setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && *m.Bound == 0.25)
		}
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better, with the largest bound")
	}
	for _, d := range details {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("detail %q: bad name or unit", d.Name)
		}
	}
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func declaredNames(defs []metricDef) []string {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEveryWorkload runs all six workloads at tiny scale, untraced
// and traced: every declared metric is reported and no other, every
// check passes, the span file is a well-formed forest, and between
// them the workloads report every one of the issue's names.
func TestSmokeEveryWorkload(t *testing.T) {
	owned := map[string]bool{}
	defer func() {
		for _, d := range details {
			// A smoke run is too short for a p99 (1000 samples).
			if !owned[d.Name] && d.Name != "commit_p99_us" {
				t.Errorf("no workload reported the detail %s", d.Name)
			}
		}
	}()
	for _, c := range workloads {
		t.Run(c.Name, func(t *testing.T) {
			c, o := c.scaled(smokeScale), smoke(t)
			r, err := runOne(c, o, false)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("untraced: correct=%v failed=%d attempted=%d: %v", r.Correct, r.Failed, r.Attempted, r.Failures)
			}
			if got, want := metricNames(r.Metrics), declaredNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced metrics %v, declared %v", got, want)
			}
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; the driver divides by it", name, m.Value)
				}
			}
			for name := range r.Detail {
				owned[name] = true
			}

			r, err = runOne(c, o, true)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d: %v", r.Correct, r.Failed, r.Failures)
			}
			if got, want := metricNames(r.Metrics), declaredNames(perLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced metrics %v, declared %v", got, want)
			}
			spans := readSpans(t, filepath.Join(o.OutDir, "trace-"+c.Name+".jsonl"))
			if len(spans) == 0 {
				t.Fatal("no spans written")
			}
			stats, err := analyse(spans)
			if err != nil {
				t.Fatalf("span tree: %v", err)
			}
			storm := c.Stage == stageStorm
			if storm && (stats.layerSelf["repo"] != 0 || stats.layerSelf["wal"] != 0 || stats.layerSelf["store"] != 0) {
				t.Errorf("label storm entered the repository: %v", stats.layerSelf)
			}
			if !storm && (stats.layerSelf["repo"] == 0 || stats.layerSelf["wal"] == 0 || stats.layerSelf["update"] == 0) {
				t.Errorf("repository workload has empty layers: %v", stats.layerSelf)
			}
		})
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	return spans
}

// TestSeedDeterminism: the same seed gives a byte-identical event
// stream and identical label storm counts, another seed another stream.
func TestSeedDeterminism(t *testing.T) {
	for _, c := range workloads {
		if c.Stage == stageStorm {
			continue // no repository, no stream: its picks are checked below
		}
		_, h1, err := genStreams(c, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		_, h2, _ := genStreams(c, 2, 7)
		_, h3, _ := genStreams(c, 2, 8)
		if h1 != h2 || h1 == h3 {
			t.Errorf("%s: stream hashes %s %s (seed 7 twice), %s (seed 8)", c.Name, h1, h2, h3)
		}
	}
	c, _ := workloadByName("label_storm")
	c = c.scaled(0.05)
	a, err := runStorm(c, 7, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := runStorm(c, 7, 0, nil)
	d, _ := runStorm(c, 8, 0, nil)
	if !reflect.DeepEqual(a.counts, b.counts) || len(a.failures)+len(b.failures) > 0 {
		t.Errorf("label storm counts differ for one seed:\n%v\n%v\n%v", a.counts, b.counts, a.failures)
	}
	if reflect.DeepEqual(a.counts, d.counts) {
		t.Errorf("label storm counts do not depend on the seed: %v", a.counts)
	}
}

// TestSelfTimesRejectMalformedTrees: a child outside its parent and a
// negative self time are reported, a proper tree gives duration minus
// child cover.
func TestSelfTimesRejectMalformedTrees(t *testing.T) {
	good := []span{
		{Req: 1, ID: 1, Start: 0, End: 100},
		{Req: 1, ID: 2, Parent: 1, Start: 10, End: 40},
		{Req: 1, ID: 3, Parent: 1, Start: 50, End: 90},
		{Req: 1, ID: 4, Parent: 3, Start: 60, End: 70},
	}
	self, err := selfTimes(good)
	if err != nil || self[0] != 30 || self[2] != 30 || self[3] != 10 {
		t.Errorf("self times %v, err %v", self, err)
	}
	outside := append([]span(nil), good...)
	outside[3].End = 95
	if _, err := selfTimes(outside); err == nil {
		t.Error("a child that outlasts its parent was accepted")
	}
	overlap := append([]span(nil), good...)
	overlap[1].End, overlap[2].Start = 90, 15
	if _, err := selfTimes(overlap); err == nil {
		t.Error("children covering more than their parent were accepted")
	}
}

// TestRecoveryCheckCatchesCorruption: the ckpt_restart check compares
// the recovered documents with the leader's at the copy point; one
// extra commit on the recovered side must fail it.
func TestRecoveryCheckCatchesCorruption(t *testing.T) {
	c, _ := workloadByName("ckpt_restart")
	c = c.scaled(0.02)
	base := t.TempDir()
	w, err := setup(c, 1, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	want, err := serialize(w.leader)
	if err != nil {
		t.Fatal(err)
	}
	end, _ := w.leader.EndPosition()
	copyDir := filepath.Join(base, "copy")
	if err := crashCopy(w.dir, copyDir, end); err != nil {
		t.Fatal(err)
	}
	rec, err := xmldyn.NewDurableRepository(copyDir, c.durableOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if diff := recoveredDiff(rec, want); diff != "" {
		t.Fatalf("clean recovery reported a difference: %s", diff)
	}
	if _, err := rec.Batch(w.names[0], func(doc *xmltree.Document, b *update.Batch) error {
		b.AppendChild(doc.Root(), "corrupt")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if diff := recoveredDiff(rec, want); diff == "" {
		t.Error("a corrupted recovered document passed the check")
	}
}
