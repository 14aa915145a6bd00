// Package analysis is the repo's custom static-analysis suite: a small,
// dependency-free framework in the mold of golang.org/x/tools/go/analysis
// (which this module deliberately does not depend on) plus the four
// analyzers that turn the repo's convention-documented invariants into
// machine-checked ones.
//
// Three are AST-local:
//
//   - mmapkeepalive: every reader of a finalizer-managed mmap array must
//     pin the owning index with runtime.KeepAlive after its last
//     dereference (the use-after-munmap class).
//   - atomicfield: a field or slice accessed through sync/atomic anywhere
//     must be accessed through sync/atomic everywhere, and structs
//     embedding typed atomics must not be copied by value.
//   - infguard: a decoded distance must be bounds-checked against
//     graph.Inf before being stored into a label structure (the hostile
//     wire-frame class).
//
// One is interprocedural, built on the call-graph/summary layer in
// interproc.go:
//
//   - snapgen: atomic.Pointer snapshots load once per scope (even
//     through helpers), and cache generation arguments are live and
//     match the snapshot published in the same scope.
//
// cmd/parapll-vet is the multichecker driver; analysistest provides
// golden-file testing for individual analyzers.
//
// Findings can be suppressed with a comment on the offending line or the
// line above it:
//
//	//parapll:vet-ignore <analyzer> <reason>
//
// The reason is mandatory; a vet-ignore without one is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in findings and vet-ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Packages gates the analyzer to packages whose import path contains
	// one of these elements; empty means every package. RunAnalyzers
	// skips the passes outside it.
	Packages []string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Applies reports whether the analyzer checks the package at pkgPath:
// the gate RunAnalyzers applies per pass.
func (a *Analyzer) Applies(pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if strings.Contains(pkgPath, p) {
			return true
		}
	}
	return false
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	PkgPath  string
	Info     *types.Info
	// Prog is the interprocedural view (call graph + per-function
	// summaries) over every package in the same RunAnalyzers call; see
	// interproc.go.
	Prog *Program

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one raw finding before position resolution.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is one resolved, post-suppression finding.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// All returns the full analyzer suite in a stable order: the three
// AST-local analyzers, then the one built on the call-graph/summary
// layer (interproc.go).
func All() []*Analyzer {
	return []*Analyzer{MmapKeepAlive, AtomicField, InfGuard, SnapGen}
}

// ignoreDirective is the comment prefix that suppresses a finding on its
// own line or the line directly below.
const ignoreDirective = "//parapll:vet-ignore"

// ignoreKey identifies one suppressed (file, line, analyzer) cell.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// ignoreRecord is one vet-ignore directive with its suppression count,
// shared by both line keys it covers.
type ignoreRecord struct {
	pos      token.Position
	analyzer string
	reason   string
	uses     int
}

// IgnoreUse is one vet-ignore directive as seen by a full run: where it
// is, what it suppresses, why, and how many findings it actually
// suppressed. A directive with Uses == 0 whose analyzer was part of the
// run is stale — the code it excused no longer trips the analyzer.
type IgnoreUse struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	Uses     int
}

// collectIgnores scans a package's comments for vet-ignore directives.
// Malformed directives (missing analyzer or reason) are reported as
// findings so a suppression can never silently mean nothing.
func collectIgnores(pkg *Package, malformed *[]Finding) (map[ignoreKey]*ignoreRecord, []*ignoreRecord) {
	ignores := make(map[ignoreKey]*ignoreRecord)
	var records []*ignoreRecord
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignoreDirective)
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					*malformed = append(*malformed, Finding{
						Analyzer: "vet-ignore",
						Pos:      pos,
						Message:  "malformed directive: want //parapll:vet-ignore <analyzer> <reason>",
					})
					continue
				}
				rec := &ignoreRecord{
					pos:      pos,
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
				}
				records = append(records, rec)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					ignores[ignoreKey{file: pos.Filename, line: line, analyzer: fields[0]}] = rec
				}
			}
		}
	}
	return ignores, records
}

// RunAnalyzers runs every analyzer over every package and returns the
// surviving findings sorted by position. Analyzer errors (not findings)
// abort the run.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	findings, _, err := RunAnalyzersVerbose(pkgs, analyzers)
	return findings, err
}

// RunAnalyzersVerbose is RunAnalyzers plus the vet-ignore inventory:
// every directive seen, with how many findings it suppressed. Callers
// running the full suite use it to fail on stale suppressions
// (cmd/parapll-vet, vet_test.go); analysistest runs single analyzers
// and ignores the inventory.
func RunAnalyzersVerbose(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []IgnoreUse, error) {
	prog := BuildProgram(pkgs)
	var findings []Finding
	var allRecords []*ignoreRecord
	for _, pkg := range pkgs {
		ignores, records := collectIgnores(pkg, &findings)
		allRecords = append(allRecords, records...)
		for _, a := range analyzers {
			if !a.Applies(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				PkgPath:  pkg.Path,
				Info:     pkg.Info,
				Prog:     prog,
			}
			pass.report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if rec := ignores[ignoreKey{file: pos.Filename, line: pos.Line, analyzer: a.Name}]; rec != nil {
					rec.uses++
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	var uses []IgnoreUse
	for _, rec := range allRecords {
		uses = append(uses, IgnoreUse{Pos: rec.pos, Analyzer: rec.analyzer, Reason: rec.reason, Uses: rec.uses})
	}
	sort.Slice(uses, func(i, j int) bool {
		a, b := uses[i], uses[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return findings, uses, nil
}

// StaleIgnores filters an inventory down to the stale directives: those
// whose analyzer was part of the run yet suppressed nothing, plus those
// naming an analyzer that does not exist at all (a typo never
// suppresses anything either).
func StaleIgnores(uses []IgnoreUse, ran []*Analyzer) []IgnoreUse {
	names := make(map[string]bool, len(ran))
	for _, a := range ran {
		names[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var stale []IgnoreUse
	for _, u := range uses {
		if u.Uses > 0 {
			continue
		}
		if names[u.Analyzer] || !known[u.Analyzer] {
			stale = append(stale, u)
		}
	}
	return stale
}
