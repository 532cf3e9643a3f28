// Command statgate is the repo-invariant static analysis gate: it
// type-checks the whole tree from source (stdlib go/parser + go/types
// only — no tooling beyond the Go distribution) and runs the
// internal/analysis suite over every package, printing one line per
// finding and exiting non-zero when any survive their pragmas.
//
// Usage:
//
//	go run ./cmd/statgate              # analyze the enclosing module
//	go run ./cmd/statgate -root DIR    # analyze the module rooted at DIR
//	go run ./cmd/statgate -run floateq,orderedreduce
//	go run ./cmd/statgate -list        # print the analyzer suite
//
// Findings are suppressible only via an explicit pragma on the
// offending line or the line above:
//
//	//statgate:allow <analyzer> — <reason>
//
// `make analyze` and the CI analyze job run this as a merge gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program, factored for the golden test.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("statgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root to analyze (default: the module enclosing the working directory)")
	runList := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "print the analyzer suite and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "statgate:", err)
			return 2
		}
		mr, err := analysis.FindModuleRoot(wd)
		if err != nil {
			fmt.Fprintln(stderr, "statgate:", err)
			return 2
		}
		*root = mr
	}
	cfg := analysis.Config{Root: *root}
	if *runList != "" {
		as, err := analysis.ByName(strings.Split(*runList, ","))
		if err != nil {
			fmt.Fprintln(stderr, "statgate:", err)
			return 2
		}
		cfg.Analyzers = as
	}
	findings, err := analysis.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "statgate:", err)
		return 2
	}
	for _, f := range findings {
		pos := f.Pos
		if rel, err := filepath.Rel(*root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s: [%s] %s\n", pos, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "statgate: %d finding(s)\n", len(findings))
		return 1
	}
	fmt.Fprintln(stdout, "statgate: tree clean")
	return 0
}
