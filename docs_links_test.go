package xmldyn

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNoDeadLinks fails on dead intra-docs links: every relative
// markdown link in README.md and docs/*.md (and the examples'
// READMEs) must point at a file that exists in the repository.
// External links (http/https/mailto) and pure in-page anchors are out
// of scope; a relative link's anchor fragment is stripped before the
// file check. CI runs this as its own step so a renamed or deleted
// doc cannot silently orphan references from the others.
//
// Go sources point at the docs too: every *.md file named in a comment
// or string literal of a *.go file outside bench/ (frozen with the
// benchmark) must exist — at the path given when it has one, otherwise
// at the repository root or under docs/ (the docs-check tests build
// their paths from segments).
func TestDocsNoDeadLinks(t *testing.T) {
	files := []string{"README.md"}
	for _, glob := range []string{"docs/*.md", "examples/*/README.md"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) < 4 {
		t.Fatalf("found only %d markdown files — the glob set is broken", len(files))
	}
	// Inline markdown links: [text](target). Reference-style links and
	// autolinks are not used in this repository's docs.
	linkRe := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			// Strip an anchor; a bare in-page anchor needs no file check.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			checked++
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead link %q (resolved %q): %v", file, m[1], resolved, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no relative links found across the docs — the link regexp is broken")
	}
	mdRe := regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)
	mentions := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path == "bench" || path == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range mdRe.FindAllString(line, -1) {
				mentions++
				name = strings.TrimPrefix(name, "/")
				_, err := os.Stat(name)
				if err != nil && !strings.Contains(name, "/") {
					_, err = os.Stat(filepath.Join("docs", name))
				}
				if err != nil {
					t.Errorf("%s:%d: names %s, which exists neither there nor under docs/", path, i+1, name)
				}
			}
		}
		return nil
	})
	if err != nil || mentions == 0 {
		t.Fatalf("scan of the Go sources for *.md names: %d found, error %v", mentions, err)
	}
	// These docs must stay present by name, not just transitively via
	// whoever happens to still link them: the claim tests read the
	// paper-vs-measured section of the experiments log, and the replica
	// package docs cite the protocol spec by section number.
	for _, required := range []string{"docs/EXPERIMENTS.md", "docs/REPLICATION.md"} {
		if _, err := os.Stat(required); err != nil {
			t.Errorf("required doc %s missing: %v", required, err)
		}
	}
}

// TestDocsCiteDeclaredMetrics is a docs-check gate, read-only on
// BENCHMARK.json: a benchmark metric README.md or docs/*.md cites must
// be one the benchmark declares, so a renamed or removed metric cannot
// leave a doc pointing at nothing. A citation is a back-quoted dotted
// lower-case name whose first segment is a benchmark layer
// (`repo.commit_p99_us`); in the rows of docs/EXPERIMENTS.md's family
// coverage table every back-quoted name is one — a per-layer or
// end-to-end metric. bench/README.md is the benchmark's own glossary
// and is not checked.
func TestDocsCiteDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	declared, layers := map[string]bool{}, map[string]bool{}
	for _, m := range decl.PerLayer {
		declared[m.Name] = true
		layers[strings.SplitN(m.Name, ".", 2)[0]] = true
	}
	for _, m := range decl.EndToEnd {
		declared[m.Name] = true
	}
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	quotedRe := regexp.MustCompile("`([^`]+)`")
	dottedRe := regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)+$`)
	cited, inTable := 0, 0
	for _, file := range append(files, "README.md") {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		coverage := false
		for _, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(line, "## ") {
				coverage = strings.Contains(line, "Family coverage")
			}
			for _, m := range quotedRe.FindAllStringSubmatch(line, -1) {
				name := m[1]
				row := coverage && strings.HasPrefix(line, "|")
				metric := dottedRe.MatchString(name) && layers[strings.SplitN(name, ".", 2)[0]] &&
					filepath.Ext(name) != ".go" && filepath.Ext(name) != ".md"
				if !row && !metric {
					continue
				}
				if row {
					inTable++
				} else {
					cited++
				}
				if !declared[name] {
					t.Errorf("%s: cites `%s`, which BENCHMARK.json does not declare", file, name)
				}
			}
		}
	}
	if cited == 0 || inTable == 0 {
		t.Fatalf("found %d metric citations and %d coverage-table names — the patterns or BENCHMARK.json's decoding are broken", cited, inTable)
	}
}
