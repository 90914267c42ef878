// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: typed passes over a fully
// type-checked package, reporting position-anchored diagnostics. The
// repository's invariant checkers (locksort, frozenguard, lockheld,
// walappend, sentinelerr — see docs/STATIC_ANALYSIS.md) are built on
// it, and cmd/xmldynvet drives them under `go vet -vettool=`.
//
// The framework is deliberately dependency-free: it re-implements just
// the slice of go/analysis the suite needs (Analyzer/Pass/Diagnostic,
// a suppression-comment filter, and the vet.cfg loader in vet.go) on
// top of the standard library's go/ast, go/types and go/importer, so
// the module keeps building in hermetic environments where
// golang.org/x/tools cannot be fetched. The analyzer API mirrors
// go/analysis closely enough that porting the suite onto the real
// framework is a mechanical change.
//
// Suppressions: a diagnostic is dropped when the flagged line, or the
// line immediately above it, carries a comment of the form
//
//	//xmldynvet:ignore <analyzer>[,<analyzer>...] <justification>
//
// The justification is mandatory — a bare ignore directive is itself
// reported — so every suppression in the tree documents why the
// invariant does not apply at that site.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant-checking pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// xmldynvet:ignore directives.
	Name string
	// Doc is the one-paragraph description shown by `xmldynvet -help`.
	Doc string
	// Run executes the pass, reporting findings via pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset maps token positions of the package's syntax.
	Fset *token.FileSet
	// Files is the package's parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo carries the type-checker's Defs/Uses/Types/Selections
	// maps for the package's syntax.
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position, the analyzer that produced
// it, and a human-readable message.
type Diagnostic struct {
	// Pos anchors the finding in Package.Fset.
	Pos token.Pos
	// Analyzer names the pass that produced the finding.
	Analyzer string
	// Message describes the invariant violation.
	Message string
}

// A Package bundles everything a Pass needs about one type-checked
// package. The loaders in vet.go and analysistest produce it.
type Package struct {
	// Fset maps token positions.
	Fset *token.FileSet
	// Files is the parsed syntax, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's maps for Files.
	Info *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated; loaders pass it to types.Config.Check.
func NewInfo() *types.Info {
	return &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// ignoreDirective is the comment prefix that suppresses a diagnostic.
const ignoreDirective = "xmldynvet:ignore"

// suppression is one parsed ignore directive.
type suppression struct {
	file      string
	line      int
	analyzers map[string]bool
	justified bool
	pos       token.Pos
}

// Run executes the analyzers over pkg, filters suppressed findings,
// and returns the survivors sorted by position. Malformed or
// justification-free ignore directives are reported as diagnostics in
// their own right (analyzer "ignore"), so a suppression can never
// silently rot into a blanket waiver.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sups := collectSuppressions(pkg)
	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(pkg.Fset, sups, d) {
			kept = append(kept, d)
		}
	}
	for _, s := range sups {
		if !s.justified {
			kept = append(kept, Diagnostic{
				Pos:      s.pos,
				Analyzer: "ignore",
				Message:  "xmldynvet:ignore directive needs an analyzer name and a justification",
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Pos != kept[j].Pos {
			return kept[i].Pos < kept[j].Pos
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

// collectSuppressions parses every ignore directive in the package.
func collectSuppressions(pkg *Package) []suppression {
	var out []suppression
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Directive position only: no space after //, per the Go
				// convention separating directives from prose that merely
				// mentions them.
				rest, ok := strings.CutPrefix(c.Text, "//"+ignoreDirective)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				s := suppression{
					file:      pkg.Fset.Position(c.Pos()).Filename,
					line:      pkg.Fset.Position(c.Pos()).Line,
					analyzers: make(map[string]bool),
					pos:       c.Pos(),
				}
				if len(fields) >= 2 {
					for _, name := range strings.Split(fields[0], ",") {
						s.analyzers[name] = true
					}
					s.justified = true
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// suppressed reports whether d is covered by a directive on its own
// line or the line immediately above.
func suppressed(fset *token.FileSet, sups []suppression, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, s := range sups {
		if !s.justified || s.file != pos.Filename || !s.analyzers[d.Analyzer] {
			continue
		}
		if s.line == pos.Line || s.line == pos.Line-1 {
			return true
		}
	}
	return false
}
