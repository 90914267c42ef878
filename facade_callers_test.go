package xmldyn

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
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

	files := callerFiles(t, "examples", "cmd", "bench")
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

// callerFiles lists the files whose calls count: the root example*_test.go
// files (whose Output is checked) and every non-test Go file under dirs,
// testdata excluded.
func callerFiles(t *testing.T, dirs ...string) []string {
	t.Helper()
	files, err := filepath.Glob("example*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// internalKeep names what internal/ exports for tests alone, each with
// the reason it stays.
var internalKeep = map[string]string{
	"analysistest.Run":              "the test-support package's entry: every analyzer's golden test runs through it",
	"analysistest.loader.Import":    "the types.Importer the test-support package hands its type checker",
	"containment.NewGapInterval":    "claim C1's scheme in TestClaims and the ablation",
	"core.MustScheme":               "the registry lookup tests in eight packages share",
	"core.PublishedRow":             "the published Figure 7 row the matrix tests compare against",
	"labels.CheckAscending":         "the order oracle of eight test files",
	"labels.DecodeQStream":          "the candidate codec for storing QED labels on disk (ROADMAP item 29)",
	"labels.EncodeQStream":          "the candidate codec for storing QED labels on disk (ROADMAP item 29)",
	"labels.TotalBits":              "claim C3 in TestClaims",
	"replica.Follower.Repo":         "the facade Follower's only handle on its full read API; the replica tests read through it",
	"update.Session.DeleteChildren": "TestTransactionAtomicity's mid-transaction failure",
	"workload.Zipf.Prob":            "the exact pmf the Zipf property test compares against",
	"workload.Zipf.Ranks":           "the rank count the Zipf property test walks",
	"xmltree.Document.NodeCount":    "a tree oracle of tests across packages",
	"xmltree.Document.PreRank":      "a tree oracle of tests across packages",
	"xmltree.Document.Validate":     "a tree oracle of tests across packages",
	"xmltree.OuterXML":              "a tree oracle of tests across packages",
}

// internalBenchOnly maps a name whose only non-test callers are in the
// frozen bench/ to the bench/ file that calls it, directly or through
// another name listed here. Nothing else may start calling it, so it
// goes when bench/ lets it go.
var internalBenchOnly = map[string]string{
	"labels.CutString":            "bench/records.go",
	"labels.EncodeLEB128":         "bench/records.go",
	"store.DocSnapName":           "bench/traced.go",
	"store.MarshalManifest":       "bench/traced.go",
	"store.ReadManifest":          "bench/traced.go",
	"store.WriteManifest":         "bench/traced.go",
	"update.DecodeOps":            "bench/traced.go",
	"update.EncodeOps":            "bench/traced.go",
	"wal.SyncPerCommit":           "bench/spec.go",
	"workload.BuildCorpus":        "bench/scenario.go",
	"workload.FewHugeDocs":        "bench/spec.go",
	"workload.ManyTinyDocs":       "bench/spec.go",
	"workload.NewZipf":            "bench/ops.go",
	"workload.ReadMostly":         "bench/ops.go",
	"workload.ShapeDocument":      "bench/scenario.go",
	"workload.Stream":             "bench/ops.go",
	"xmltree.GenerateDeep":        "bench/scenario.go",
	"xmltree.GenerateWide":        "bench/scenario.go",
	"xmltree.NewDocumentWithRoot": "bench/probes.go",
}

// TestInternalFunctionsHaveCallers holds internal/ to what is used, as
// TestFacadeFunctionsHaveCallers holds the facade: every exported
// function and method declared in a non-test file under internal/ has a
// caller in a non-test file of the module or a root example*_test.go. A
// function's caller is pkg.Name in another package, or a bare Name in
// its own package outside its declaration; a method's is a .Name
// selector outside its declaration, or Name declared on an interface.
// String and Error methods are skipped, as are the method sets
// TestOneWriteAPI fixes. What only tests need is named in internalKeep,
// what only bench/ calls in internalBenchOnly (constants and variables
// are checked only there), and a stale entry in either fails too.
func TestInternalFunctionsHaveCallers(t *testing.T) {
	type use struct {
		file  string
		owner string // key of the declaration the use sits in
	}
	type decl struct {
		key, pkg, file, name string
		recv                 string // receiver type name; "" for a function
		value                bool   // a constant or variable
	}
	sep := string(filepath.Separator)
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	pkgNames := map[string]string{} // import path → package name
	importPath := func(file string) string {
		if dir := filepath.ToSlash(filepath.Dir(file)); dir != "." {
			return "xmldyn/" + dir
		}
		return "xmldyn"
	}
	for _, path := range callerFiles(t, ".") {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed[path] = f
		if !strings.HasSuffix(path, "_test.go") {
			pkgNames[importPath(path)] = f.Name.Name
		}
	}
	typeName := func(x ast.Expr) string {
		if star, ok := x.(*ast.StarExpr); ok {
			x = star.X
		}
		switch g := x.(type) {
		case *ast.IndexExpr:
			x = g.X
		case *ast.IndexListExpr:
			x = g.X
		}
		if id, ok := x.(*ast.Ident); ok {
			return id.Name
		}
		return ""
	}

	var decls []decl
	pkgUses := map[string][]use{}     // "path.Name" → selectors from other packages
	bareUses := map[string][]use{}    // "path.Name" → bare identifiers in that package
	methodUses := map[string][]use{}  // Name → .Name selectors
	ifaceMethods := map[string]bool{} // names declared on interface types
	// The repo types whose method sets TestOneWriteAPI fixes, and the
	// types they embed.
	fixed := map[string]bool{"Repository": true, "DurableRepository": true, "FollowerRepository": true, "Snapshot": true}
	for path, f := range parsed {
		self, pkg := importPath(path), f.Name.Name
		internal := strings.HasPrefix(path, "internal"+sep)
		imports := map[string]string{} // local name → module import path
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			name, ok := pkgNames[p]
			if !ok {
				continue
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		owner := ""
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
					key := imports[id.Name] + "." + n.Sel.Name
					pkgUses[key] = append(pkgUses[key], use{path, owner})
					return false
				}
				methodUses[n.Sel.Name] = append(methodUses[n.Sel.Name], use{path, owner})
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				key := self + "." + n.Name
				bareUses[key] = append(bareUses[key], use{path, owner})
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		}
		for _, d := range f.Decls {
			owner = ""
			switch d := d.(type) {
			case *ast.FuncDecl:
				dc := decl{key: pkg + "." + d.Name.Name, pkg: self, file: path, name: d.Name.Name}
				if d.Recv != nil {
					dc.recv = typeName(d.Recv.List[0].Type)
					dc.key = pkg + "." + dc.recv + "." + dc.name
				}
				if internal {
					owner = dc.key
					if d.Name.IsExported() {
						decls = append(decls, dc)
					}
				}
				ast.Inspect(d, visit)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if internal && name.IsExported() {
								decls = append(decls, decl{key: pkg + "." + name.Name, pkg: self, file: path, name: name.Name, value: true})
							}
						}
						for _, v := range s.Values {
							ast.Inspect(v, visit)
						}
						if s.Type != nil {
							ast.Inspect(s.Type, visit)
						}
					case *ast.TypeSpec:
						if st, ok := s.Type.(*ast.StructType); ok && self == "xmldyn/internal/repo" && fixed[s.Name.Name] {
							for _, field := range st.Fields.List {
								if len(field.Names) == 0 {
									fixed[typeName(field.Type)] = true
								}
							}
						}
						ast.Inspect(s, visit)
					}
				}
			}
		}
	}

	var failures []string
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		keep, benchFile := internalKeep[d.key], internalBenchOnly[d.key]
		switch {
		case d.value && keep == "" && benchFile == "":
			continue
		case d.recv != "" && (d.name == "String" || d.name == "Error"):
			continue
		case d.recv != "" && d.pkg == "xmldyn/internal/repo" && fixed[d.recv]:
			continue
		}
		uses := slices.Concat(pkgUses[d.pkg+"."+d.name], bareUses[d.pkg+"."+d.name])
		if d.recv != "" {
			uses = methodUses[d.name]
		}
		var callers, outside []string // every caller; callers outside bench/
		benchCalls := false
		for _, u := range uses {
			if u.owner == d.key {
				continue
			}
			callers = append(callers, u.file)
			switch {
			case strings.HasPrefix(u.file, "bench"+sep):
				benchCalls = benchCalls || filepath.ToSlash(u.file) == benchFile
			case internalBenchOnly[u.owner] != "":
				benchCalls = benchCalls || internalBenchOnly[u.owner] == benchFile
			default:
				outside = append(outside, u.file)
			}
		}
		if d.recv != "" && ifaceMethods[d.name] {
			callers = append(callers, "an interface")
			outside = append(outside, "an interface")
		}
		switch {
		case keep != "":
			if len(callers) > 0 {
				fail("keep %s (%s): called from %s", d.key, keep, callers[0])
			}
		case benchFile != "":
			if len(outside) > 0 {
				fail("benchOnly %s (%s): called from %s", d.key, benchFile, outside[0])
			} else if !benchCalls {
				fail("benchOnly %s: %s does not call it", d.key, benchFile)
			}
		case len(callers) == 0:
			fail("%s (%s): no caller outside tests", d.key, d.file)
		case len(outside) == 0:
			fail("%s (%s): called only from bench/, directly or through internalBenchOnly (%s); list it there", d.key, d.file, callers[0])
		}
	}
	for name := range internalKeep {
		if !seen[name] {
			fail("keep %s: no such function", name)
		}
	}
	for name := range internalBenchOnly {
		if !seen[name] {
			fail("benchOnly %s: no such name", name)
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}
