// Command xmldynvet is the repository's invariant checker: a
// multichecker over the custom analyzers in internal/analysis that
// proves the concurrency and durability disciplines documented in
// docs/CONCURRENCY.md and docs/DURABILITY.md at compile time (see
// docs/STATIC_ANALYSIS.md for the analyzer-by-analyzer mapping).
//
// It runs under the go vet driver, which covers the full build graph,
// test variants included, and caches results per package:
//
//	go build -o xmldynvet ./cmd/xmldynvet
//	go vet -vettool=./xmldynvet ./...
//
// The binary speaks cmd/go's vet protocol (-flags, -V=full, then one
// vet.cfg per package); any other argument prints usage and exits 2.
// Diagnostics print as file:line:col: message (analyzer); the exit
// status is 2 when any diagnostic is reported. Suppress a finding by
// annotating the line (or the line above) with
//
//	//xmldynvet:ignore <analyzer> <justification>
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"xmldyn/internal/analysis"
	"xmldyn/internal/analysis/frozenguard"
	"xmldyn/internal/analysis/lockheld"
	"xmldyn/internal/analysis/locksort"
	"xmldyn/internal/analysis/sentinelerr"
	"xmldyn/internal/analysis/walappend"
)

// analyzers is the active suite, in the order findings are labelled.
var analyzers = []*analysis.Analyzer{
	locksort.Analyzer,
	frozenguard.Analyzer,
	lockheld.Analyzer,
	walappend.Analyzer,
	sentinelerr.Analyzer,
}

func main() {
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			// cmd/go fingerprints the tool for its build cache; the
			// contract is "<name> version <non-devel version>".
			fmt.Printf("xmldynvet version %s\n", runtime.Version())
			return
		case arg == "-flags" || arg == "--flags":
			// cmd/go asks which flags the tool accepts (JSON).
			fmt.Println("[]")
			return
		case arg == "-help" || arg == "--help" || arg == "-h":
			usage(os.Stdout)
			return
		case strings.HasSuffix(arg, ".cfg"):
			os.Exit(runVet(arg))
		}
	}
	usage(os.Stderr)
	os.Exit(2)
}

// usage prints how to run the tool and the analyzer roster.
func usage(w io.Writer) {
	fmt.Fprintln(w, "go vet -vettool=$(which xmldynvet) ./...")
	fmt.Fprintln(w, "\nanalyzers:")
	for _, a := range analyzers {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
}

// runVet executes one vet.cfg unit per the go vet vettool protocol.
func runVet(cfg string) int {
	diags, fset, err := analysis.RunVetConfig(cfg, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmldynvet: %v\n", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return 2
}
