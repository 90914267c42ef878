// Intra-package call-graph helper: maps each function or method to the
// static call sites that invoke it within the same package. The
// walappend analyzer uses it to propagate lock-held facts from callers
// into unexported helpers (the repository's dropLocked pattern: the
// caller holds commitMu, the helper appends to the WAL).

package analysis

import (
	"go/ast"
	"go/types"
)

// A CallSite is one static call of a function from within the package.
type CallSite struct {
	// Caller is the enclosing function declaration, nil for calls at
	// package scope (variable initialisers).
	Caller *ast.FuncDecl
	// Call is the call expression itself.
	Call *ast.CallExpr
}

// A CallGraph indexes a package's static calls by callee object.
type CallGraph struct {
	callers map[*types.Func][]CallSite
	// refs counts every reference to a function object, calls or not:
	// a function whose reference count exceeds its call count escapes
	// as a value (goroutine, callback, method value) and cannot be
	// reasoned about by caller inspection.
	refs map[*types.Func]int
}

// BuildCallGraph indexes the call sites in files' function declarations.
func BuildCallGraph(info *types.Info, files []*ast.File) *CallGraph {
	g := &CallGraph{
		callers: make(map[*types.Func][]CallSite),
		refs:    make(map[*types.Func]int),
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			cur := fd
			ast.Inspect(fd, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if fn := calleeOf(info, n); fn != nil {
						g.callers[fn] = append(g.callers[fn], CallSite{Caller: cur, Call: n})
					}
				case *ast.Ident:
					if fn, ok := info.Uses[n].(*types.Func); ok {
						g.refs[fn]++
					}
				}
				return true
			})
		}
	}
	return g
}

// calleeOf resolves a call expression to the called *types.Func, or
// nil for dynamic calls (function values, interface methods resolve to
// their interface method object, which has no body here).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// CallersOf returns the package-internal static call sites of fn.
func (g *CallGraph) CallersOf(fn *types.Func) []CallSite { return g.callers[fn] }

// Escapes reports whether fn is referenced other than by its static
// calls (passed as a value, launched as a goroutine, bound as a method
// value): such a function's callers cannot be enumerated statically.
func (g *CallGraph) Escapes(fn *types.Func) bool {
	return g.refs[fn] > len(g.callers[fn])
}
