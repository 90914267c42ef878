package wal_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"xmldyn/internal/repo"
	"xmldyn/internal/store"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// TestDurabilityDocConstants is the docs-check gate: every constant
// docs/DURABILITY.md quotes in its golden tables must equal the value
// in the source. The doc promises a reader can reimplement recovery
// from it alone; this test is what makes that promise hold across
// refactors. CI runs it as a dedicated step.
func TestDurabilityDocConstants(t *testing.T) {
	path := filepath.Join("..", "..", "docs", "DURABILITY.md")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("docs/DURABILITY.md must exist (it specifies the on-disk format): %v", err)
	}

	// Parse `| `pkg.Name` | `value` |` table rows; the qualified-name
	// requirement keeps non-golden tables (like the record-type layout
	// table) out of the comparison.
	rowRe := regexp.MustCompile("(?m)^\\|\\s*`([a-z]+\\.[A-Za-z0-9]+)`\\s*\\|\\s*`([^`]+)`\\s*\\|")
	documented := make(map[string]string)
	for _, m := range rowRe.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = m[2]
	}
	if len(documented) == 0 {
		t.Fatal("no golden-constant rows found in docs/DURABILITY.md")
	}

	expect := map[string]string{
		"wal.Magic":                       strconv.Quote(wal.Magic),
		"wal.Version":                     fmt.Sprint(wal.Version),
		"wal.HeaderSize":                  fmt.Sprint(wal.HeaderSize),
		"wal.FrameHeaderSize":             fmt.Sprint(wal.FrameHeaderSize),
		"wal.MaxRecordSize":               fmt.Sprint(wal.MaxRecordSize),
		"wal.SegmentPattern":              strconv.Quote(wal.SegmentPattern),
		"wal.DefaultSegmentBytes":         fmt.Sprint(wal.DefaultSegmentBytes),
		"repo.DefaultAutoCheckpointBytes": fmt.Sprint(repo.DefaultAutoCheckpointBytes),
		"store.ManifestName":              strconv.Quote(store.ManifestName),
		"store.VersionSnapshot":           fmt.Sprint(store.VersionSnapshot),
		"store.VersionRepo":               fmt.Sprint(store.VersionRepo),
		"store.VersionManifest":           fmt.Sprint(store.VersionManifest),
		"store.VersionDocSnap":            fmt.Sprint(store.VersionDocSnap),
		"store.DocSnapPattern":            strconv.Quote(store.DocSnapPattern),
		"repo.RecOpen":                    fmt.Sprint(repo.RecOpen),
		"repo.RecBatch":                   fmt.Sprint(repo.RecBatch),
		"repo.RecDrop":                    fmt.Sprint(repo.RecDrop),
		"repo.RecMulti":                   fmt.Sprint(repo.RecMulti),
		"update.SubtreeInline":            fmt.Sprint(update.SubtreeInline),
		"update.SubtreeBackref":           fmt.Sprint(update.SubtreeBackref),
		"update.OpInsertBefore":           fmt.Sprint(int(update.OpInsertBefore)),
		"update.OpInsertAfter":            fmt.Sprint(int(update.OpInsertAfter)),
		"update.OpInsertFirstChild":       fmt.Sprint(int(update.OpInsertFirstChild)),
		"update.OpAppendChild":            fmt.Sprint(int(update.OpAppendChild)),
		"update.OpInsertSubtreeBefore":    fmt.Sprint(int(update.OpInsertSubtreeBefore)),
		"update.OpInsertSubtreeAfter":     fmt.Sprint(int(update.OpInsertSubtreeAfter)),
		"update.OpInsertSubtreeFirst":     fmt.Sprint(int(update.OpInsertSubtreeFirst)),
		"update.OpAppendSubtree":          fmt.Sprint(int(update.OpAppendSubtree)),
		"update.OpDelete":                 fmt.Sprint(int(update.OpDelete)),
		"update.OpSetText":                fmt.Sprint(int(update.OpSetText)),
		"update.OpRename":                 fmt.Sprint(int(update.OpRename)),
		"update.OpSetAttr":                fmt.Sprint(int(update.OpSetAttr)),
		"xmltree.KindDocument":            fmt.Sprint(int(xmltree.KindDocument)),
		"xmltree.KindElement":             fmt.Sprint(int(xmltree.KindElement)),
		"xmltree.KindAttribute":           fmt.Sprint(int(xmltree.KindAttribute)),
		"xmltree.KindText":                fmt.Sprint(int(xmltree.KindText)),
		"xmltree.KindComment":             fmt.Sprint(int(xmltree.KindComment)),
		"xmltree.KindProcInst":            fmt.Sprint(int(xmltree.KindProcInst)),
	}

	for name, want := range expect {
		got, ok := documented[name]
		if !ok {
			t.Errorf("docs/DURABILITY.md is missing golden constant %s (code value %s)", name, want)
			continue
		}
		if got != want {
			t.Errorf("docs/DURABILITY.md documents %s = %s, code says %s", name, got, want)
		}
	}
	for name := range documented {
		if _, ok := expect[name]; !ok {
			t.Errorf("docs/DURABILITY.md documents unknown constant %s — add it to the golden test or remove it", name)
		}
	}
}

// TestDurabilityDocMentionsWALConstants requires every exported
// constant of internal/wal to be mentioned (as `wal.Name`) somewhere
// in docs/DURABILITY.md. The golden tables above pin exact values for
// the format-critical subset; this broader check catches a new
// exported constant shipping with no spec coverage at all.
func TestDurabilityDocMentionsWALConstants(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "DURABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok || gen.Tok != token.CONST {
					continue
				}
				for _, spec := range gen.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if !name.IsExported() {
							continue
						}
						checked++
						if !strings.Contains(string(doc), "wal."+name.Name) {
							t.Errorf("docs/DURABILITY.md never mentions exported constant wal.%s — specify it", name.Name)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no exported constants in internal/wal — the parse filter is broken")
	}
}
