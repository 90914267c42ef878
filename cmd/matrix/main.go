// Command matrix prints the paper's Figure 7 evaluation matrix: the
// published grades, the measured grades derived from live probes, the
// cell-by-cell diff and the §5.2 analysis.
//
// Usage:
//
//	matrix                 # published + measured + diff
//	matrix -published      # published matrix only
//	matrix -measured       # measured matrix only (runs the probes)
//	matrix -analyze        # §5.2 analysis of the published matrix
//	matrix -reports        # raw probe measurements per scheme
//	matrix -scheme qed     # evaluate a single scheme
package main

import (
	"flag"
	"fmt"
	"os"

	"xmldyn/internal/core"
)

func main() {
	published := flag.Bool("published", false, "print the published Figure 7 only")
	measured := flag.Bool("measured", false, "print the measured matrix only")
	analyze := flag.Bool("analyze", false, "print the §5.2 analysis")
	reports := flag.Bool("reports", false, "print raw probe reports")
	scheme := flag.String("scheme", "", "evaluate a single scheme")
	recommend := flag.String("recommend", "", "advisor profile: version-control, large-documents, query-heavy, general")
	flag.Parse()
	if *recommend != "" {
		if err := runRecommend(*recommend); err != nil {
			fmt.Fprintln(os.Stderr, "matrix:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*published, *measured, *analyze, *reports, *scheme); err != nil {
		fmt.Fprintln(os.Stderr, "matrix:", err)
		os.Exit(1)
	}
}

func runRecommend(profile string) error {
	req, err := core.ProfileRequirements(core.Profile(profile))
	if err != nil {
		return err
	}
	recs := core.Recommend(core.PublishedMatrix(), req)
	if len(recs) == 0 {
		fmt.Println("no scheme in the published matrix satisfies the profile")
		return nil
	}
	fmt.Printf("advisor profile %q (published matrix):\n", profile)
	for i, r := range recs {
		fmt.Printf("  %d. %-16s %d full grades overall; %s\n", i+1, r.Scheme, r.FullCount, r.Why)
	}
	return nil
}

func run(published, measured, analyze, reports bool, scheme string) error {
	cfg := core.DefaultProbeConfig()
	if scheme != "" {
		s, ok := core.SchemeByName(scheme)
		if !ok {
			return fmt.Errorf("unknown scheme %q", scheme)
		}
		a, rep, err := core.Evaluate(s, cfg)
		if err != nil {
			return err
		}
		if err := core.RenderMatrix(os.Stdout, []core.Assessment{a}); err != nil {
			return err
		}
		fmt.Println()
		return core.RenderReport(os.Stdout, rep)
	}
	if analyze {
		return printAnalysis()
	}
	if published {
		fmt.Println("Published matrix (Figure 7):")
		return core.RenderMatrix(os.Stdout, core.PublishedMatrix())
	}
	rows, reps, err := core.EvaluateAll(cfg)
	if err != nil {
		return err
	}
	if measured {
		fmt.Println("Measured matrix:")
		return core.RenderMatrix(os.Stdout, rows)
	}
	fmt.Println("Published matrix (Figure 7):")
	if err := core.RenderMatrix(os.Stdout, core.PublishedMatrix()); err != nil {
		return err
	}
	fmt.Println("\nMeasured matrix (framework probes; extra rows are measured-only schemes):")
	if err := core.RenderMatrix(os.Stdout, rows); err != nil {
		return err
	}
	diffs, cells := core.DiffMatrices(core.PublishedMatrix(), rows)
	fmt.Printf("\nDiff: %d of %d cells diverge (%.1f%% agreement); see docs/EXPERIMENTS.md for explanations\n",
		len(diffs), cells, 100*float64(cells-len(diffs))/float64(cells))
	for _, d := range diffs {
		fmt.Printf("  %-18s %-18s published %-2s measured %-2s\n", d.Scheme, d.Column, d.Published, d.Measured)
	}
	if reports {
		fmt.Println()
		for _, r := range reps {
			if err := core.RenderReport(os.Stdout, r); err != nil {
				return err
			}
		}
	}
	return nil
}

func printAnalysis() error {
	a := core.AnalyzeMatrix(core.PublishedMatrix())
	fmt.Println("§5.2 analysis of the published matrix:")
	fmt.Printf("  most generic scheme: %s (%d Full grades) — the paper: \"the CDQS labelling scheme satisfies the greater number of properties\"\n",
		a.MostGeneric, a.MostGenericFull)
	if len(a.DuplicateSignatures) == 0 {
		fmt.Println("  no two schemes share the same properties")
		return nil
	}
	fmt.Println("  identical rows in the printed figure (the §5.2 uniqueness claim fails for these):")
	for _, d := range a.DuplicateSignatures {
		fmt.Printf("    %s == %s\n", d[0], d[1])
	}
	return nil
}
