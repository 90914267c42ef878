// Package frozenguard enforces the xmltree mutation contract
// (docs/CONCURRENCY.md §7, docs/STATIC_ANALYSIS.md): every exported
// mutator in a package named xmltree — an exported method on Node or
// Document that writes a content field (name, value, parent, and the
// one list of attributes then children, links, with its attribute count
// nattrs) of a node reachable from its receiver or parameters — must
// both gate on the frozen state (mustThaw, or an ErrFrozen-style
// check of the frozen field / Frozen method) and invalidate the
// persistent shadows via markChanged(). Missing the gate lets writers
// corrupt published MVCC versions; missing markChanged leaves stale
// shadows, so the next PublishVersion silently shares a subtree that
// has in fact changed — the invariant-discipline bug class behind the
// PR 6 same-parent reinsert panic.
//
// Writes to freshly allocated nodes (composite literals, constructor
// and Clone results) are not mutations of published state and are
// exempt, as are the bookkeeping fields themselves: the persistence
// fields (frozen, view, mirror, expanded) and the label slot (slot),
// which a labelling writes and no version copies.
package frozenguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"xmldyn/internal/analysis"
)

// Analyzer flags exported xmltree mutators missing the frozen gate or
// the markChanged shadow invalidation.
var Analyzer = &analysis.Analyzer{
	Name: "frozenguard",
	Doc: "exported xmltree mutators must gate on frozen state and call " +
		"markChanged() (docs/CONCURRENCY.md §7)",
	Run: run,
}

// contentFields are the Node fields whose mutation publishes state;
// the remaining fields are persistence and labelling bookkeeping.
var contentFields = map[string]bool{
	"name": true, "value": true, "parent": true, "links": true, "nattrs": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() != "xmltree" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			if rn := recvTypeName(fd); rn != "Node" && rn != "Document" {
				continue
			}
			derived := derivedObjects(pass, fd)
			writePos := contentWrite(pass, fd, derived)
			if !writePos.IsValid() {
				continue
			}
			if !hasFrozenGate(fd) {
				pass.Reportf(fd.Name.Pos(),
					"exported mutator %s writes node content without a frozen-state gate (call mustThaw or check frozen/ErrFrozen first; docs/CONCURRENCY.md §7)",
					fd.Name.Name)
			}
			if !callsMarkChanged(fd) {
				pass.Reportf(fd.Name.Pos(),
					"exported mutator %s writes node content without calling markChanged(); the next PublishVersion would share a stale subtree (docs/CONCURRENCY.md §7)",
					fd.Name.Name)
			}
		}
	}
	return nil
}

// recvTypeName returns the receiver's base type name.
func recvTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// derivedObjects computes the set of local objects that alias state
// reachable from the receiver or parameters: the receiver and
// parameters themselves, range variables over their fields, and
// locals assigned from selector/index chains over already-derived
// objects. Locals initialised from calls or composite literals are
// fresh — writes to them are construction, not mutation.
func derivedObjects(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	addIdent := func(id *ast.Ident) {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			derived[obj] = true
		}
	}
	for _, field := range fd.Recv.List {
		for _, id := range field.Names {
			addIdent(id)
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, id := range field.Names {
				addIdent(id)
			}
		}
	}
	// Fixpoint over aliasing assignments; two passes suffice for the
	// chains that occur in practice, iterate until stable regardless.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if rootDerived(pass, derived, n.X) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
							if obj := pass.TypesInfo.Defs[id]; obj != nil && !derived[obj] {
								derived[obj] = true
								changed = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if !aliasExpr(n.Rhs[i]) || !rootDerived(pass, derived, n.Rhs[i]) {
						continue
					}
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj != nil && !derived[obj] {
						derived[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return derived
}

// aliasExpr reports whether e is a pure selector/index/deref chain —
// an alias of existing state — rather than a call or literal that
// produces a fresh value.
func aliasExpr(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// rootDerived reports whether e's root identifier is a derived object.
func rootDerived(pass *analysis.Pass, derived map[types.Object]bool, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			return obj != nil && derived[obj]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			return false
		default:
			return false
		}
	}
}

// contentWrite returns the position of the first assignment,
// increment or copy to a content field of a Node reached through a
// derived object — to the field itself or to an element or slice of
// it — or NoPos.
func contentWrite(pass *analysis.Pass, fd *ast.FuncDecl, derived map[types.Object]bool) token.Pos {
	var pos token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		var lhss []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			lhss = n.Lhs
		case *ast.IncDecStmt:
			lhss = []ast.Expr{n.X}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 2 {
				if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && id.Name == "copy" {
					lhss = n.Args[:1]
				}
			}
		default:
			return true
		}
		for _, lhs := range lhss {
			sel, ok := writtenField(lhs).(*ast.SelectorExpr)
			if !ok || !contentFields[sel.Sel.Name] {
				continue
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				continue
			}
			if owner := namedRecvName(selection.Recv()); owner != "Node" {
				continue
			}
			if rootDerived(pass, derived, sel.X) {
				pos = lhs.Pos()
				return false
			}
		}
		return true
	})
	return pos
}

// writtenField strips the indexes and slices off a written expression:
// a write to n.links[i] or n.links[a:b] is a write to n.links.
func writtenField(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return x
		}
	}
}

// namedRecvName names a selection's receiver type, pointers stripped.
func namedRecvName(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// hasFrozenGate reports whether the body checks frozen state: a call
// to mustThaw, or an if-condition mentioning the frozen field or
// Frozen method.
func hasFrozenGate(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "mustThaw" {
				found = true
			}
		case *ast.IfStmt:
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				switch c := c.(type) {
				case *ast.SelectorExpr:
					if c.Sel.Name == "frozen" || c.Sel.Name == "Frozen" {
						found = true
					}
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// callsMarkChanged reports whether the body invalidates shadows.
func callsMarkChanged(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "markChanged" {
				found = true
			}
		}
		return !found
	})
	return found
}
