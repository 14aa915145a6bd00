// parapll-vet is the repo's multichecker: it runs the custom analyzer
// suite in internal/analysis over the module and exits non-zero if any
// finding survives suppression. It is wired into scripts/check.sh and
// CI, so a violated invariant is a red build, not a code-review note.
//
// Usage:
//
//	parapll-vet [-only mmapkeepalive,atomicfield] [-list] [-json] [packages...]
//
// Packages default to ./... relative to the current directory. Findings
// print one per line as file:line:col: analyzer: message; -json emits
// them as NDJSON objects instead (one per line, for CI annotation
// tooling). There is no suppression directive: a finding is fixed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"parapll/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as NDJSON (one object per line)")
	dir := flag.String("dir", ".", "module directory to analyze")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: parapll-vet [-only names] [-list] [-json] [packages...]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "parapll-vet: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, err := analysis.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parapll-vet:", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parapll-vet:", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, f := range findings {
			// Field order matters downstream: scripts/check.sh rewrites
			// these lines into GitHub annotations with sed, not a JSON
			// parser.
			if err := enc.Encode(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message}); err != nil {
				fmt.Fprintln(os.Stderr, "parapll-vet:", err)
				os.Exit(2)
			}
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "parapll-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
