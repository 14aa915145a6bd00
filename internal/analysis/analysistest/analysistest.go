// Package analysistest runs one analyzer over a testdata package and
// checks its findings against // want "regexp" comments, in the mold of
// golang.org/x/tools/go/analysis/analysistest (which this module
// deliberately does not depend on).
//
// A want comment is written on the line it expects a finding on:
//
//	x.dists[i] = 0 // want `dereferences mmap-aliased`
//	bad()          // want "first" "second"
//
// Each quoted (or backquoted) regexp must match the message of exactly
// one finding reported on that line; unmatched expectations and
// unexpected findings both fail the test.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"parapll/internal/analysis"
)

// wantRe matches one quoted or backquoted expectation in a want comment.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectation is one // want entry awaiting a finding.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run loads dir as a single package named by pkgPath, applies the
// analyzer, and compares findings against the package's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantRe.FindAllString(text[idx+len("// want "):], -1)
				if len(matches) == 0 {
					t.Errorf("%s: malformed want comment: %s", pos, text)
					continue
				}
				for _, m := range matches {
					pattern := strings.Trim(m, "`")
					if m[0] == '"' {
						if unq, err := strconv.Unquote(m); err == nil {
							pattern = unq
						}
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pattern, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	findings, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unmet expectation matching f, if any.
func claim(wants []*expectation, f analysis.Finding) bool {
	for _, w := range wants {
		if w.met || w.file != f.Pos.Filename || w.line != f.Pos.Line {
			continue
		}
		if w.re.MatchString(f.Message) || w.re.MatchString(fmt.Sprintf("%s: %s", f.Analyzer, f.Message)) {
			w.met = true
			return true
		}
	}
	return false
}
