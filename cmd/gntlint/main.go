// Command gntlint machine-checks this repository's concurrency and
// resource invariants: the conventions that were previously enforced
// only by review — context polls in unbounded loops, no time.After in
// loops, stats mutated under their lock, goroutine errors routed
// somewhere, canonical obs names — each traceable to a real historical
// bug or a documented contract.
//
// Usage:
//
//	gntlint [-json] [-tests] [-c analyzer[,analyzer]] [packages]
//	gntlint -list
//
// Packages default to ./... resolved against the enclosing module.
// The driver loads and type-checks offline with the standard library
// only; no module downloads, no binaries beyond the go toolchain.
//
// Exit status: 0 clean, 1 findings reported, 2 usage or load failure.
//
// A finding is suppressed with an in-source directive carrying a
// mandatory reason:
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or alone on the line above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"givetake/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gntlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		asJSON  = fs.Bool("json", false, "emit findings as a JSON array")
		list    = fs.Bool("list", false, "print the analyzer catalog and exit")
		tests   = fs.Bool("tests", false, "also analyze in-package _test.go files")
		checks  = fs.String("c", "", "comma-separated analyzers to run (default: all)")
		workDir = fs.String("dir", ".", "directory whose module anchors package resolution")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: gntlint [flags] [packages]\n\nAnalyzers check the repository's own concurrency and resource invariants;\nsee gntlint -list for the catalog.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}

	analyzers := lint.All()
	if *checks != "" {
		analyzers = nil
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "gntlint: unknown analyzer %q (see gntlint -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	findings, err := lint.Run(lint.Config{
		Dir:          *workDir,
		Analyzers:    analyzers,
		IncludeTests: *tests,
	}, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "gntlint: %v\n", err)
		return 2
	}

	if *asJSON {
		type jsonFinding struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: relPath(f.Pos.Filename), Line: f.Pos.Line, Column: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "gntlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
				relPath(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// relPath shortens absolute finding paths relative to the working
// directory when that makes them shorter — the shape CI logs and
// editors expect.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}

func firstLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		return doc[:i]
	}
	return doc
}
