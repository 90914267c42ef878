package xmldyn

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	"analysistest.Run":           "the test-support package's entry: every analyzer's golden test runs through it",
	"analysistest.loader.Import": "the types.Importer the test-support package hands go/types, which calls it",
	"containment.NewGapInterval": "claim C1's scheme in TestClaims and the ablation",
	"core.MustScheme":            "the registry lookup tests in eight packages share",
	"core.PublishedRow":          "the published Figure 7 row the matrix tests compare against",
	"labels.CheckAscending":      "the order oracle of eight test files",
	"labels.DecodeQStream":       "the candidate codec for storing QED labels on disk (ROADMAP item 29)",
	"labels.EncodeQStream":       "the candidate codec for storing QED labels on disk (ROADMAP item 29)",
	"labels.TotalBits":           "claim C3 in TestClaims",
	"replica.Follower.Repo":      "the facade Follower's only handle on its full read API; the replica tests read through it",
	"workload.Zipf.Prob":         "the exact pmf the Zipf property test compares against",
	"workload.Zipf.Ranks":        "the rank count the Zipf property test walks",
	"xmltree.Document.Clone":     "the documented way past labeling.ErrHeld: tests label one tree under several schemes",
	"xmltree.Document.NodeCount": "a tree oracle of tests across packages",
	"xmltree.Document.PreRank":   "a tree oracle of tests across packages",
	"xmltree.Document.Validate":  "a tree oracle of tests across packages",
	"xmltree.OuterXML":           "a tree oracle of tests across packages",
	"xpath.Engine.Examined":      "claim P2 in TestPClaims and the element index's differential test",
}

// internalBenchOnly maps a name whose only non-test callers are in the
// frozen bench/ to the bench/ file that calls it, directly or through
// another name listed here. Nothing else may start calling it, so it
// goes when bench/ lets it go.
var internalBenchOnly = map[string]string{
	"labels.CutString":              "bench/records.go",
	"labels.EncodeLEB128":           "bench/records.go",
	"store.DocSnapName":             "bench/traced.go",
	"store.MarshalManifest":         "bench/traced.go",
	"store.ReadManifest":            "bench/traced.go",
	"store.WriteManifest":           "bench/traced.go",
	"update.Batch.InsertBefore":     "bench/ops.go",
	"update.Batch.InsertFirstChild": "bench/ops.go",
	"update.Batch.Rename":           "bench/ops.go",
	"update.Batch.SetText":          "bench/ops.go",
	"update.DecodeOps":              "bench/traced.go",
	"update.EncodeOps":              "bench/traced.go",
	"wal.SyncPerCommit":             "bench/spec.go",
	"workload.BuildCorpus":          "bench/scenario.go",
	"workload.FewHugeDocs":          "bench/spec.go",
	"workload.ManyTinyDocs":         "bench/spec.go",
	"workload.NewZipf":              "bench/ops.go",
	"workload.ReadMostly":           "bench/ops.go",
	"workload.ShapeDocument":        "bench/scenario.go",
	"workload.Stream":               "bench/ops.go",
	"workload.Zipf.Next":            "bench/ops.go",
	"xmltree.GenerateDeep":          "bench/scenario.go",
	"xmltree.GenerateWide":          "bench/scenario.go",
	"xmltree.NewDocumentWithRoot":   "bench/probes.go",
	"xmltree.OpenVersion":           "bench/probes.go",
}

// TestInternalFunctionsHaveCallers holds internal/ to what is used, as
// TestFacadeFunctionsHaveCallers holds the facade: every exported
// function and method declared in a non-test file under internal/ has a
// caller in a non-test file of the module or a root example*_test.go.
// The module is type-checked, so a caller is a use of the declared
// object itself — a call, a method value or a function value — outside
// its own declaration, not a selector that merely shares its name. A
// method also counts as called when its type implements an interface
// whose method of that name has a caller in the module; a method only
// the standard library calls, through an interface of its own, is
// listed in internalKeep. String and Error methods are skipped, as are
// the method sets TestOneWriteAPI fixes. What only tests need is named
// in internalKeep, what only bench/ calls in internalBenchOnly
// (constants and variables are checked only there), and a stale entry
// in either fails too.
func TestInternalFunctionsHaveCallers(t *testing.T) {
	type use struct {
		file  string
		owner string // key of the declaration the use sits in
	}
	type decl struct {
		key, file string
		obj       types.Object
		recv      *types.Named // nil for a function, constant or variable
	}
	sep := string(filepath.Separator)
	mod := loadModule(t, callerFiles(t, "."))
	keyOf := func(obj types.Object) string {
		key := obj.Pkg().Name() + "." + obj.Name()
		if recv := receiver(obj); recv != nil {
			key = obj.Pkg().Name() + "." + recv.Obj().Name() + "." + obj.Name()
		}
		return key
	}

	var decls []decl
	uses := map[types.Object][]use{}
	for path, f := range mod.files {
		internal := strings.HasPrefix(path, "internal"+sep)
		owner := ""
		visit := func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := mod.info.Uses[id]; obj != nil {
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
					}
					uses[obj] = append(uses[obj], use{path, owner})
				}
			}
			return true
		}
		for _, d := range f.Decls {
			owner = ""
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := mod.info.Defs[d.Name]
				owner = keyOf(obj)
				if internal && d.Name.IsExported() {
					decls = append(decls, decl{key: owner, file: path, obj: obj, recv: receiver(obj)})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if s, ok := spec.(*ast.ValueSpec); ok && internal {
						for _, name := range s.Names {
							if name.IsExported() {
								obj := mod.info.Defs[name]
								decls = append(decls, decl{key: keyOf(obj), file: path, obj: obj})
							}
						}
					}
				}
			}
			ast.Inspect(d, visit)
		}
	}

	// The interface methods with a caller, by name: a method of that
	// name on a type implementing the interface is called with them.
	ifaceUses := map[string][]*types.Func{}
	for obj := range uses {
		if fn, ok := obj.(*types.Func); ok && receiver(fn) == nil && fn.Type().(*types.Signature).Recv() != nil {
			ifaceUses[fn.Name()] = append(ifaceUses[fn.Name()], fn)
		}
	}
	// The repo types whose method sets TestOneWriteAPI fixes, and the
	// types they embed.
	fixed := map[*types.Named]bool{}
	repoScope := mod.pkgs["xmldyn/internal/repo"].Scope()
	for _, name := range []string{"Repository", "DurableRepository", "FollowerRepository", "Snapshot"} {
		named := repoScope.Lookup(name).Type().(*types.Named)
		fixed[named] = true
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Embedded() {
				if e, ok := types.Unalias(derefType(f.Type())).(*types.Named); ok {
					fixed[e] = true
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
		name := d.obj.Name()
		_, isFunc := d.obj.(*types.Func)
		switch {
		case !isFunc && keep == "" && benchFile == "":
			continue
		case d.recv != nil && (name == "String" || name == "Error"):
			continue
		case d.recv != nil && fixed[d.recv]:
			continue
		}
		all := uses[d.obj]
		if d.recv != nil {
			ptr := types.NewPointer(d.recv)
			for _, m := range ifaceUses[name] {
				if iface := interfaceOf(m); iface != nil && types.Implements(ptr, iface) {
					all = append(all, uses[m]...)
				}
			}
		}
		var callers, outside []string // every caller; callers outside bench/
		benchCalls := false
		for _, u := range all {
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

// module is the type-checked module: every file callerFiles lists, by
// path, with one types.Info over all of them.
type module struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string][]*ast.File // import path → its files
	files map[string]*ast.File   // file path → syntax
	pkgs  map[string]*types.Package
	info  *types.Info
}

// loadModule parses paths and type-checks their packages: module import
// paths from source, the standard library from GOROOT source.
func loadModule(t *testing.T, paths []string) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{fset: fset, std: importer.ForCompiler(fset, "source", nil), dirs: map[string][]*ast.File{},
		files: map[string]*ast.File{}, pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := "xmldyn"
		if d := filepath.ToSlash(filepath.Dir(path)); d != "." {
			dir += "/" + d
		} else if strings.HasSuffix(f.Name.Name, "_test") {
			dir = f.Name.Name // the root example files' external test package
		}
		m.files[path] = f
		m.dirs[dir] = append(m.dirs[dir], f)
	}
	for dir := range m.dirs {
		if _, err := m.Import(dir); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import implements types.Importer over the module and GOROOT.
func (m *module) Import(path string) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// receiver is the named type a concrete method is declared on, or nil
// for a function or an interface method.
func receiver(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	named, _ := types.Unalias(derefType(fn.Type().(*types.Signature).Recv().Type())).(*types.Named)
	if named == nil || types.IsInterface(named) {
		return nil
	}
	return named.Origin()
}

// interfaceOf is the interface an interface method belongs to: its
// receiver's, or its type parameter's constraint.
func interfaceOf(fn *types.Func) *types.Interface {
	typ := fn.Type().(*types.Signature).Recv().Type()
	if tp, ok := typ.(*types.TypeParam); ok {
		typ = tp.Constraint()
	}
	iface, _ := typ.Underlying().(*types.Interface)
	return iface
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
