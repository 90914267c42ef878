package xmldyn

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented is a revive-style lint, run as a test
// so CI enforces it without external tools: in the persistence and
// update layers (and the facade), every exported top-level symbol must
// carry a doc comment, and every package must have exactly one package
// doc. The durable-repository work leans on these packages' godoc as
// primary documentation, so drift fails the build.
func TestExportedSymbolsDocumented(t *testing.T) {
	dirs := []string{
		".",
		"internal/repo",
		"internal/replica",
		"internal/update",
		"internal/store",
		"internal/wal",
		"internal/workload",
		"internal/analysis",
		"internal/analysis/analysistest",
		"internal/analysis/locksort",
		"internal/analysis/frozenguard",
		"internal/analysis/lockheld",
		"internal/analysis/walappend",
		"internal/analysis/sentinelerr",
		"cmd/xmldynvet",
	}
	for _, dir := range dirs {
		t.Run(filepath.ToSlash(dir), func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				packageDocs := 0
				for _, f := range pkg.Files {
					if f.Doc != nil {
						packageDocs++
					}
					for _, decl := range f.Decls {
						for _, miss := range undocumented(decl) {
							pos := fset.Position(miss.pos)
							t.Errorf("%s:%d: exported %s %s has no doc comment", pos.Filename, pos.Line, miss.kind, miss.name)
						}
					}
				}
				if packageDocs != 1 {
					t.Errorf("package %s has %d package doc comments, want exactly 1", pkg.Name, packageDocs)
				}
			}
		})
	}
}

type missingDoc struct {
	kind string
	name string
	pos  token.Pos
}

// undocumented reports exported top-level symbols in decl lacking docs.
func undocumented(decl ast.Decl) []missingDoc {
	var out []missingDoc
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil && !exportedRecv(d.Recv) {
			return nil
		}
		if d.Name.IsExported() && d.Doc == nil {
			kind := "function"
			if d.Recv != nil {
				kind = fmt.Sprintf("method %s.", recvName(d.Recv))
			}
			out = append(out, missingDoc{kind, d.Name.Name, d.Pos()})
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					out = append(out, missingDoc{"type", s.Name.Name, s.Pos()})
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						out = append(out, missingDoc{d.Tok.String(), n.Name, n.Pos()})
					}
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether a method's receiver type is exported
// (unexported types' methods are not part of the package API).
func exportedRecv(recv *ast.FieldList) bool {
	name := recvName(recv)
	return name != "" && ast.IsExported(name)
}

func recvName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
