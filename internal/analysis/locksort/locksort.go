// Package locksort enforces the repository's one global lock order
// (docs/CONCURRENCY.md §3, docs/STATIC_ANALYSIS.md): a function that
// write-locks the same mutex field of several distinct objects —
// multiple *Doc document locks — must be the blessed sorted-name-order
// primitive (lockLiveSorted); anywhere else, a loop that write-locks through its iteration variable and
// holds the locks past the iteration, or a second write lock taken
// while a sibling's is already held, is an ad-hoc multi-document lock
// acquisition that can deadlock against the sorted order, and is
// flagged.
package locksort

import (
	"go/ast"

	"xmldyn/internal/analysis"
)

// Analyzer flags ad-hoc multi-object write-lock acquisition.
var Analyzer = &analysis.Analyzer{
	Name: "locksort",
	Doc: "flag write-locking multiple sibling objects outside the sorted-order " +
		"primitive lockLiveSorted (docs/CONCURRENCY.md §3)",
	Run: run,
}

// blessed names the primitive allowed to acquire multiple document
// write locks, by function name; a primitive so named must sort the
// names first (the repository's is Repository.lockLiveSorted).
var blessed = map[string]bool{"lockLiveSorted": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || blessed[fd.Name.Name] {
				continue
			}
			checkLoops(pass, fd)
			checkPairs(pass, fd)
		}
	}
	return nil
}

// checkLoops flags loops that write-lock through the iteration
// variable without releasing within the body: the classic
// `for _, d := range docs { d.mu.Lock() }` multi-lock.
func checkLoops(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		loopVars := make(map[string]bool)
		switch loop := n.(type) {
		case *ast.RangeStmt:
			body = loop.Body
			for _, e := range []ast.Expr{loop.Key, loop.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					loopVars[id.Name] = true
				}
			}
		case *ast.ForStmt:
			body = loop.Body
			if init, ok := loop.Init.(*ast.AssignStmt); ok {
				for _, e := range init.Lhs {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						loopVars[id.Name] = true
					}
				}
			}
		default:
			return true
		}
		if len(loopVars) == 0 {
			return true
		}
		events := analysis.LockEvents(pass.TypesInfo, body)
		// Locals assigned from loop-variable expressions inside the
		// body (d := docs[i]) iterate too.
		for _, stmt := range body.List {
			if as, ok := stmt.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && usesAny(as.Rhs[0], loopVars) {
					loopVars[id.Name] = true
				}
			}
		}
		for _, ev := range events {
			if ev.Op != analysis.OpLock || ev.Deferred {
				continue
			}
			if ev.Base == nil || !usesAny(ev.Base, loopVars) {
				continue
			}
			if unlockedWithin(events, ev) {
				continue // per-iteration lock/unlock holds one at a time
			}
			pass.Reportf(ev.Pos,
				"write-locking %s in a loop acquires multiple %s locks ad hoc; route multi-document locking through lockLiveSorted (sorted-name order, docs/CONCURRENCY.md §3)",
				ev.Path, ev.OwnerType)
		}
		return true
	})
}

// usesAny reports whether expr mentions any of the named identifiers.
func usesAny(expr ast.Expr, names map[string]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && names[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

// unlockedWithin reports whether the same path is unlocked later in
// the same loop body (so at most one lock is held at a time).
func unlockedWithin(events []analysis.LockEvent, lock analysis.LockEvent) bool {
	for _, ev := range events {
		if ev.Path == lock.Path && ev.Pos > lock.Pos && !ev.Deferred && ev.Op == analysis.OpUnlock {
			return true
		}
	}
	return false
}

// checkPairs flags a write lock taken while the same mutex field of a
// different object of the same type is already held — sequential
// two-document locking outside the sorted order.
func checkPairs(pass *analysis.Pass, fd *ast.FuncDecl) {
	events := analysis.LockEvents(pass.TypesInfo, fd.Body)
	held := make(map[string]map[string]bool) // OwnerType.Field -> held paths
	for _, ev := range events {
		if ev.OwnerType == "" || ev.Deferred {
			continue
		}
		key := ev.OwnerType + "." + ev.Field
		switch ev.Op {
		case analysis.OpLock:
			if held[key] == nil {
				held[key] = make(map[string]bool)
			}
			if len(held[key]) > 0 && !held[key][ev.Path] {
				pass.Reportf(ev.Pos,
					"write-locking %s while another %s.%s lock is held; multi-document write locks must go through lockLiveSorted (sorted-name order, docs/CONCURRENCY.md §3)",
					ev.Path, ev.OwnerType, ev.Field)
			}
			held[key][ev.Path] = true
		case analysis.OpUnlock:
			delete(held[key], ev.Path)
		}
	}
}
