// Shared lock-tracking helpers: a lexical scanner for sync.Mutex /
// sync.RWMutex acquisition and release events inside one function
// body, used by the locksort, lockheld and walappend analyzers. The
// model is deliberately lexical (source order approximates execution
// order within a function); it is precise for the straight-line
// lock/defer-unlock discipline the repository's locking protocol
// prescribes, and the analyzers treat "not provably held" as the
// failure condition.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOp classifies one mutex event.
type LockOp int

// Lock event kinds. Write locks and read locks are distinguished so
// analyzers can demand the write side specifically.
const (
	OpLock LockOp = iota
	OpRLock
	OpUnlock
	OpRUnlock
)

// A LockEvent is one mutex method call (or synthetic acquisition, see
// AcquirerCalls) found in a function body.
type LockEvent struct {
	// Path is the textual path of the mutex expression, e.g.
	// "d.commitMu" for d.commitMu.RLock().
	Path string
	// Base is the expression owning the mutex field ("d" above), or
	// nil when the mutex is a bare identifier.
	Base ast.Expr
	// OwnerType names the named type of Base (pointers stripped), or
	// "" when unknown.
	OwnerType string
	// Field is the mutex field or variable name ("commitMu" above).
	Field string
	// Op is the event kind.
	Op LockOp
	// Deferred marks events inside a defer statement. A deferred
	// unlock is evidence the lock is held from that point on; a
	// deferred lock is ignored by HeldAt.
	Deferred bool
	// Pos is the call position.
	Pos token.Pos
}

// IsMutexType reports whether t (or its pointee) is sync.Mutex or
// sync.RWMutex.
func IsMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockOps maps mutex method names to event kinds.
var lockOps = map[string]LockOp{
	"Lock":    OpLock,
	"RLock":   OpRLock,
	"Unlock":  OpUnlock,
	"RUnlock": OpRUnlock,
}

// LockEvents scans body for mutex method calls and returns them in
// source order. info must carry Types for the package's expressions.
func LockEvents(info *types.Info, body ast.Node) []LockEvent {
	var out []LockEvent
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				walk(d.Call, true)
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			op, ok := lockOps[sel.Sel.Name]
			if !ok {
				return true
			}
			if tv, ok := info.Types[sel.X]; !ok || !IsMutexType(tv.Type) {
				return true
			}
			ev := LockEvent{
				Path:     types.ExprString(sel.X),
				Op:       op,
				Deferred: deferred,
				Pos:      call.Pos(),
			}
			if mu, ok := sel.X.(*ast.SelectorExpr); ok {
				ev.Base = mu.X
				ev.Field = mu.Sel.Name
				ev.OwnerType = namedTypeName(info, mu.X)
			} else if id, ok := sel.X.(*ast.Ident); ok {
				ev.Field = id.Name
			}
			out = append(out, ev)
			return true
		})
	}
	walk(body, false)
	return out
}

// namedTypeName returns the name of e's named type, stripping one
// level of pointer, or "".
func namedTypeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// AcquirerCalls returns synthetic write-lock events for calls to the
// named lock-acquisition helpers (the repository's lockLiveSorted
// primitive): a successful call leaves the callee's document write
// locks held, which the caller releases later. The synthetic event's
// Field is field, its Path the call text.
func AcquirerCalls(body ast.Node, names map[string]bool, field string) []LockEvent {
	var out []LockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		default:
			return true
		}
		if names[name] {
			out = append(out, LockEvent{
				Path:  types.ExprString(call.Fun),
				Field: field,
				Op:    OpLock,
				Pos:   call.Pos(),
			})
		}
		return true
	})
	return out
}

// HeldAt computes which mutex paths are held at pos, by lexical order:
// a path is held when the last non-deferred lock/unlock event on it
// before pos is a lock, or when a deferred unlock on it appears before
// pos (the deferred-unlock idiom guarantees the lock is held from the
// defer statement to function exit). The returned map holds the
// strongest mode seen (OpLock over OpRLock).
func HeldAt(events []LockEvent, pos token.Pos) map[string]LockOp {
	held := make(map[string]LockOp)
	for _, ev := range events {
		if ev.Pos >= pos {
			continue
		}
		switch {
		case ev.Deferred && (ev.Op == OpUnlock || ev.Op == OpRUnlock):
			op := OpLock
			if ev.Op == OpRUnlock {
				op = OpRLock
			}
			if cur, ok := held[ev.Path]; !ok || cur == OpRLock {
				held[ev.Path] = op
			}
		case ev.Deferred:
			// A deferred Lock runs at exit; no evidence now.
		case ev.Op == OpLock || ev.Op == OpRLock:
			if cur, ok := held[ev.Path]; !ok || cur == OpRLock || ev.Op == OpLock {
				_ = cur
				held[ev.Path] = ev.Op
			}
		default: // Unlock / RUnlock
			delete(held, ev.Path)
		}
	}
	return held
}

// HeldField reports whether any held path locks a mutex field named
// field, and whether one of them holds the write side.
func HeldField(held map[string]LockOp, events []LockEvent, field string) (any bool, write bool) {
	for path, op := range held {
		for _, ev := range events {
			if ev.Path == path && ev.Field == field {
				any = true
				if op == OpLock {
					write = true
				}
				break
			}
		}
	}
	return any, write
}
