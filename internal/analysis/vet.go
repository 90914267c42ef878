// The `go vet -vettool=` side of the driver. cmd/go invokes a vettool
// once per package with a JSON config file describing the package's
// sources, its dependencies' export data, and where to write the
// tool's facts output; the tool type-checks the package, runs its
// analyzers, prints findings and exits non-zero if there were any.
// This file implements that (unpublished but stable) protocol — the
// config struct mirrors cmd/go/internal/work's vetConfig — so
// cmd/xmldynvet plugs into `go vet -vettool=` without depending on
// golang.org/x/tools/go/analysis/unitchecker.

package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// VetConfig is the JSON payload cmd/go writes to <objdir>/vet.cfg for
// each vetted package.
type VetConfig struct {
	// ID is the package ID (e.g. "fmt [fmt.test]").
	ID string
	// Compiler is the toolchain name (gc).
	Compiler string
	// Dir is the package directory.
	Dir string
	// ImportPath is the canonical package path.
	ImportPath string
	// GoFiles lists the package's Go sources, absolute.
	GoFiles []string
	// NonGoFiles lists non-Go sources (ignored here).
	NonGoFiles []string
	// IgnoredFiles lists build-constrained-out sources (ignored here).
	IgnoredFiles []string
	// ImportMap maps source import paths to package paths.
	ImportMap map[string]string
	// PackageFile maps package paths to export-data files.
	PackageFile map[string]string
	// Standard marks standard-library package paths.
	Standard map[string]bool
	// PackageVetx maps package paths to fact files from dependency
	// runs (unused: the suite's analyzers are intra-package).
	PackageVetx map[string]string
	// VetxOnly asks only for the facts output, no diagnostics.
	VetxOnly bool
	// VetxOutput is where to write this package's facts.
	VetxOutput string
	// GoVersion selects the language version for type checking.
	GoVersion string
	// SucceedOnTypecheckFailure asks the tool to exit 0 on type
	// errors (cmd/go's hack for test builds of broken packages).
	SucceedOnTypecheckFailure bool
}

// RunVetConfig executes analyzers for the package described by the
// vet.cfg file at cfgPath, per the go vet vettool protocol: it writes
// the (empty — no cross-package facts) vetx output, and returns the
// package's diagnostics with the FileSet to print them against. A nil
// FileSet with nil error means the run was skipped (VetxOnly, or a
// tolerated type-check failure).
func RunVetConfig(cfgPath string, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, nil, err
	}
	var cfg VetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}
	// The facts file must exist for cmd/go to cache, even when empty
	// or when the run is skipped.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil, nil
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil, nil
			}
			return nil, nil, err
		}
		files = append(files, f)
	}
	imp := exportImporter(fset, cfg.ImportMap, cfg.PackageFile)
	info := NewInfo()
	conf := types.Config{Importer: imp}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("type-checking %s: %w", cfg.ImportPath, err)
	}
	diags, err := Run(&Package{Fset: fset, Files: files, Types: tpkg, Info: info}, analyzers)
	if err != nil {
		return nil, nil, err
	}
	return diags, fset, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportImporter returns a types.Importer that resolves source import
// paths through importMap (test-variant packages import their
// package-under-test's variant) and reads compiled gc export data
// from the files map.
func exportImporter(fset *token.FileSet, importMap, files map[string]string) types.Importer {
	compiled := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		return compiled.(types.ImporterFrom).ImportFrom(path, "", 0)
	})
}
