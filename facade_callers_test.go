package xmldyn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeFunctionsHaveCallers holds the facade to what is used: every
// exported function in xmldyn.go must be called as xmldyn.<Name> from a
// non-test file under examples/, cmd/ or bench/, or from a root
// example*_test.go (whose Output is checked). A function only the root
// package's own tests reach is a forwarder nothing needs, and goes.
func TestFacadeFunctionsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "xmldyn.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, decl := range facade.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
			exported = append(exported, fd.Name.Name)
		}
	}
	if len(exported) == 0 {
		t.Fatal("no exported functions found in xmldyn.go")
	}

	files, err := filepath.Glob("example*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"examples", "cmd", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	called := map[string]bool{}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "xmldyn" {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var orphans []string
	for _, name := range exported {
		if !called[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("facade functions with no caller in examples/, cmd/, bench/ or a root Example: %s", strings.Join(orphans, ", "))
	}
}
