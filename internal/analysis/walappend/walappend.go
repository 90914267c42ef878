// Package walappend enforces the durable layer's append protocol
// (docs/DURABILITY.md §10 "locking protocol", docs/STATIC_ANALYSIS.md):
// every wal.Log.Append call site in production code must hold
// commitMu (either side — writers share-lock it, checkpoint phases
// exclude them) AND a serialisation lock for the records themselves:
// walMu for name-space records, or the document write lock for batch
// records (taken directly, via the deferred-unlock idiom, or through
// the blessed lockLiveSorted acquirer, as the repository's one
// transaction routine does). A helper that
// appends while its caller holds the locks is accepted when every
// intra-package call site provably holds them (the dropLocked
// pattern); test files are exempt — the wal package's own tests
// exercise Append raw, below the repository protocol.
package walappend

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"xmldyn/internal/analysis"
)

// Analyzer flags WAL appends outside the commit locking protocol.
var Analyzer = &analysis.Analyzer{
	Name: "walappend",
	Doc: "wal.Log.Append must run under commitMu plus walMu or the document " +
		"write lock (docs/DURABILITY.md §10)",
	Run: run,
}

// acquirers are the sorted-order lock helpers whose successful return
// leaves document write locks held.
var acquirers = map[string]bool{"lockLiveSorted": true}

// maxDepth bounds caller-chain propagation.
const maxDepth = 4

func run(pass *analysis.Pass) error {
	graph := analysis.BuildCallGraph(pass.TypesInfo, pass.Files)
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Append" || !isWalLog(pass.TypesInfo, sel.X) {
					return true
				}
				commit := holdsField(pass, graph, fd, call.Pos(), "commitMu", maxDepth, nil)
				serial := holdsSerialiser(pass, graph, fd, call.Pos(), maxDepth, nil)
				if !commit {
					pass.Reportf(call.Pos(),
						"wal.Log.Append without commitMu held on every path: appends must run inside the commit protocol (docs/DURABILITY.md §10)")
				}
				if !serial {
					pass.Reportf(call.Pos(),
						"wal.Log.Append without walMu or a document write lock held: record order is unserialised (docs/DURABILITY.md §10)")
				}
				return true
			})
		}
	}
	return nil
}

// isWalLog reports whether e's type is (a pointer to) type Log from a
// package named wal.
func isWalLog(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Log" && obj.Pkg() != nil && obj.Pkg().Name() == "wal"
}

// holdsField reports whether a mutex field named field is held at pos
// in fd, directly or (for non-escaping functions with callers) at
// every intra-package call site.
func holdsField(pass *analysis.Pass, graph *analysis.CallGraph, fd *ast.FuncDecl, pos token.Pos, field string, depth int, seen map[*ast.FuncDecl]bool) bool {
	events := analysis.LockEvents(pass.TypesInfo, fd.Body)
	held := analysis.HeldAt(events, pos)
	if any, _ := analysis.HeldField(held, events, field); any {
		return true
	}
	return callersHold(pass, graph, fd, depth, seen, func(caller *ast.FuncDecl, callPos token.Pos, d int, s map[*ast.FuncDecl]bool) bool {
		return holdsField(pass, graph, caller, callPos, field, d, s)
	})
}

// holdsSerialiser reports whether walMu or a document write lock is
// held at pos: a write lock on a field named walMu or mu, or a
// blessed acquirer call earlier in the function.
func holdsSerialiser(pass *analysis.Pass, graph *analysis.CallGraph, fd *ast.FuncDecl, pos token.Pos, depth int, seen map[*ast.FuncDecl]bool) bool {
	events := analysis.LockEvents(pass.TypesInfo, fd.Body)
	events = append(events, analysis.AcquirerCalls(fd.Body, acquirers, "mu")...)
	held := analysis.HeldAt(events, pos)
	if _, w := analysis.HeldField(held, events, "walMu"); w {
		return true
	}
	if _, w := analysis.HeldField(held, events, "mu"); w {
		return true
	}
	return callersHold(pass, graph, fd, depth, seen, func(caller *ast.FuncDecl, callPos token.Pos, d int, s map[*ast.FuncDecl]bool) bool {
		return holdsSerialiser(pass, graph, caller, callPos, d, s)
	})
}

// callersHold applies check at every intra-package call site of fd,
// returning true only when fd does not escape as a value, has at
// least one caller, and every caller satisfies check.
func callersHold(pass *analysis.Pass, graph *analysis.CallGraph, fd *ast.FuncDecl, depth int, seen map[*ast.FuncDecl]bool, check func(*ast.FuncDecl, token.Pos, int, map[*ast.FuncDecl]bool) bool) bool {
	if depth <= 0 {
		return false
	}
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok || graph.Escapes(fn) {
		return false
	}
	sites := graph.CallersOf(fn)
	if len(sites) == 0 {
		return false
	}
	if seen == nil {
		seen = make(map[*ast.FuncDecl]bool)
	}
	if seen[fd] {
		return false
	}
	seen[fd] = true
	for _, site := range sites {
		if site.Caller == nil || !check(site.Caller, site.Call.Pos(), depth-1, seen) {
			return false
		}
	}
	return true
}
