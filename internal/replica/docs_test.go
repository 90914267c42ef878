package replica

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
)

// TestReplicationDocConstants is the docs-check gate for the protocol
// spec: every constant docs/REPLICATION.md quotes in its golden
// tables (§2, §6) must equal the value in the source, and every table
// row must be backed by a constant here. CI runs it as part of the
// docs-check step.
func TestReplicationDocConstants(t *testing.T) {
	path := filepath.Join("..", "..", "docs", "REPLICATION.md")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("docs/REPLICATION.md must exist (it specifies the wire protocol): %v", err)
	}

	// Parse `| `pkg.Name` | `value` |` table rows; the qualified-name
	// requirement keeps prose tables (like the failure matrix) out of
	// the comparison.
	rowRe := regexp.MustCompile("(?m)^\\|\\s*`([a-z]+\\.[A-Za-z0-9]+)`\\s*\\|\\s*`([^`]+)`\\s*\\|")
	documented := make(map[string]string)
	for _, m := range rowRe.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = m[2]
	}
	if len(documented) == 0 {
		t.Fatal("no golden-constant rows found in docs/REPLICATION.md")
	}

	expect := map[string]string{
		"replica.ProtoMagic":            strconv.Quote(ProtoMagic),
		"replica.ProtoVersion":          fmt.Sprint(ProtoVersion),
		"replica.FrameHeaderSize":       fmt.Sprint(FrameHeaderSize),
		"replica.MaxMessageSize":        fmt.Sprint(MaxMessageSize),
		"replica.MsgHello":              fmt.Sprint(MsgHello),
		"replica.MsgSnapBegin":          fmt.Sprint(MsgSnapBegin),
		"replica.MsgSnapFile":           fmt.Sprint(MsgSnapFile),
		"replica.MsgSnapEnd":            fmt.Sprint(MsgSnapEnd),
		"replica.MsgSegStart":           fmt.Sprint(MsgSegStart),
		"replica.MsgRecord":             fmt.Sprint(MsgRecord),
		"replica.MsgHeartbeat":          fmt.Sprint(MsgHeartbeat),
		"replica.MsgAck":                fmt.Sprint(MsgAck),
		"replica.DefaultHeartbeat":      fmt.Sprint(DefaultHeartbeat),
		"replica.DefaultAckEvery":       fmt.Sprint(DefaultAckEvery),
		"replica.DefaultReconnectDelay": fmt.Sprint(DefaultReconnectDelay),
		"replica.frameBytes":            fmt.Sprint(frameBytes),
	}

	for name, want := range expect {
		got, ok := documented[name]
		if !ok {
			t.Errorf("docs/REPLICATION.md is missing golden constant %s (code value %s)", name, want)
			continue
		}
		if got != want {
			t.Errorf("docs/REPLICATION.md documents %s = %s, code says %s", name, got, want)
		}
	}
	for name := range documented {
		if _, ok := expect[name]; !ok {
			t.Errorf("docs/REPLICATION.md documents unknown constant %s — add it to the golden test or remove it", name)
		}
	}
}

// TestReplicationDocMentionsConstants requires every exported
// constant of internal/replica to be mentioned (as `replica.Name`)
// somewhere in docs/REPLICATION.md, so a new protocol constant cannot
// ship without spec coverage.
func TestReplicationDocMentionsConstants(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "REPLICATION.md"))
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
						if !strings.Contains(string(doc), "replica."+name.Name) {
							t.Errorf("docs/REPLICATION.md never mentions exported constant replica.%s — specify it", name.Name)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no exported constants in internal/replica — the parse filter is broken")
	}
}
