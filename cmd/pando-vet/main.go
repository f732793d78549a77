// Command pando-vet is the repo's custom static-analysis suite: a
// multichecker over the two protocol analyzers (ctxguard, locksend) whose
// bug classes no test tier reliably catches. CI runs it over ./... and
// fails on any unsuppressed diagnostic; see TESTING.md ("Tier 5 —
// vet") for the suppression grammar and how to add an analyzer.
//
// Usage:
//
//	go run ./cmd/pando-vet ./...          # whole repo
//	go run ./cmd/pando-vet ./internal/... # a subtree
//	go run ./cmd/pando-vet -list          # what would run
//
// Exit status: 0 when clean, 1 on diagnostics, 2 on usage or load
// errors. Analyzers see production sources only (no _test.go files);
// the dynamic tiers own test code.
package main

import (
	"flag"
	"fmt"
	"os"

	"pando/internal/analysis"
	"pando/internal/analysis/ctxguard"
	"pando/internal/analysis/locksend"
)

var analyzers = []*analysis.Analyzer{
	ctxguard.Analyzer,
	locksend.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("run", "", "run only the named analyzer")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pando-vet [-list] [-run analyzer] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	selected := analyzers
	if *only != "" {
		selected = nil
		for _, a := range analyzers {
			if a.Name == *only {
				selected = []*analysis.Analyzer{a}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "pando-vet: unknown analyzer %q\n", *only)
			os.Exit(2)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pando-vet:", err)
		os.Exit(2)
	}
	loader := analysis.NewLoader(wd)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pando-vet:", err)
		os.Exit(2)
	}

	bad := false
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, selected)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-vet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			bad = true
			fmt.Println(d)
		}
	}
	if bad {
		os.Exit(1)
	}
}
