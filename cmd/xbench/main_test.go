package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	for _, exp := range []string{"C2", "C3", "C7"} {
		if err := run(exp, true, false); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	err := run("C99", true, false)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The error names the valid ids, taken from the runner table.
	if ids := idList(runners(true, false)); !strings.Contains(err.Error(), ids) {
		t.Errorf("unknown-id error %q does not list %q", err, ids)
	}
}

// TestRunSmokeExperiments exercises the hypothesis pipeline the way
// CI's experiment-smoke step does: tiniest scale, one convergence
// round.
func TestRunSmokeExperiments(t *testing.T) {
	for _, exp := range []string{"C14", "C15", "C16"} {
		if err := run(exp, false, true); err != nil {
			t.Fatalf("%s smoke: %v", exp, err)
		}
	}
}

// TestExperimentIDsMatchDoc is a docs-check gate: the ids xbench runs
// are exactly the ids docs/EXPERIMENTS.md documents — a row of the
// table under its "Paper vs measured" heading for a claim of the
// paper, a "## C<n>" section for a hypothesis experiment. An
// experiment added or retired on one side only fails here.
func TestExperimentIDsMatchDoc(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	sectionRe := regexp.MustCompile(`^## (C\d+)\b`)
	rowRe := regexp.MustCompile(`^\| (C\d+) \|`)
	documented := map[string]bool{}
	inClaims := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inClaims = strings.Contains(line, "Paper vs measured")
		}
		if m := sectionRe.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
		if m := rowRe.FindStringSubmatch(line); m != nil && inClaims {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("no experiment ids found in docs/EXPERIMENTS.md — the patterns are broken")
	}
	ran := map[string]bool{}
	for _, r := range runners(true, false) {
		ran[r.id] = true
		if !documented[r.id] {
			t.Errorf("xbench runs %s, which docs/EXPERIMENTS.md does not document", r.id)
		}
	}
	for id := range documented {
		if !ran[id] {
			t.Errorf("docs/EXPERIMENTS.md documents %s, which xbench does not run", id)
		}
	}
}
