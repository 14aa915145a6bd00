// Package analysis is the repo's custom static-analysis suite: a small,
// dependency-free framework in the mold of golang.org/x/tools/go/analysis
// (which this module deliberately does not depend on) plus the two
// analyzers that turn the repo's convention-documented invariants into
// machine-checked ones. Both are AST-local:
//
//   - mmapkeepalive: every reader of a finalizer-managed mmap array must
//     pin the owning index with runtime.KeepAlive after its last
//     dereference (the use-after-munmap class).
//   - atomicfield: a field or slice accessed through sync/atomic anywhere
//     must be accessed through sync/atomic everywhere, and structs
//     embedding typed atomics must not be copied by value.
//
// The invariants the retired analyzers checked are held by tests: the
// Inf bound of every decoder by a table test per decoder, and one
// snapshot load per request by the server's hot-reload hammer (DESIGN.md
// "Static analysis & enforced invariants").
//
// cmd/parapll-vet is the multichecker driver; analysistest provides
// golden-file testing for individual analyzers. A finding is fixed, not
// suppressed: there is no suppression directive.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in findings.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info

	report func(pos token.Pos, msg string)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Finding is one resolved finding.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{MmapKeepAlive, AtomicField}
}

// RunAnalyzers runs every analyzer over every package and returns the
// findings sorted by position. Analyzer errors (not findings) abort the
// run.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}
			pass.report = func(pos token.Pos, msg string) {
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pkg.Fset.Position(pos), Message: msg})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line), strings.Compare(a.Message, b.Message))
	})
	return findings, nil
}
