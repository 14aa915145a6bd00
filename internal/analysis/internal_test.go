package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseOnly builds a comment-bearing Package without type-checking,
// which is all collectIgnores needs.
func parseOnly(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignore_test_src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "test/ignores", Fset: fset, Files: []*ast.File{f}}
}

func TestCollectIgnores(t *testing.T) {
	pkg := parseOnly(t, `package p

//parapll:vet-ignore infguard trusted input
var a = 1

//parapll:vet-ignore atomicfield
var b = 2
`)
	var malformed []Finding
	ignores, records := collectIgnores(pkg, &malformed)

	// The well-formed directive suppresses its own line and the next,
	// through one shared record so uses are counted once.
	for _, line := range []int{3, 4} {
		if ignores[ignoreKey{file: "ignore_test_src.go", line: line, analyzer: "infguard"}] == nil {
			t.Errorf("line %d not suppressed for infguard", line)
		}
	}
	if a, b := ignores[ignoreKey{file: "ignore_test_src.go", line: 3, analyzer: "infguard"}],
		ignores[ignoreKey{file: "ignore_test_src.go", line: 4, analyzer: "infguard"}]; a != b {
		t.Error("the two covered lines must share one use-counting record")
	}
	if ignores[ignoreKey{file: "ignore_test_src.go", line: 4, analyzer: "atomicfield"}] != nil {
		t.Error("suppression leaked across analyzers")
	}
	if len(records) != 1 {
		t.Fatalf("got %d records, want 1 (the well-formed directive)", len(records))
	}
	if records[0].analyzer != "infguard" || records[0].reason != "trusted input" {
		t.Errorf("unexpected record: %+v", records[0])
	}

	// The reason-less directive is itself a finding and suppresses nothing.
	if len(malformed) != 1 {
		t.Fatalf("got %d malformed findings, want 1: %v", len(malformed), malformed)
	}
	if malformed[0].Analyzer != "vet-ignore" || !strings.Contains(malformed[0].Message, "malformed") {
		t.Errorf("unexpected malformed finding: %v", malformed[0])
	}
	if malformed[0].Pos.Line != 6 {
		t.Errorf("malformed finding at line %d, want 6", malformed[0].Pos.Line)
	}
	if ignores[ignoreKey{file: "ignore_test_src.go", line: 7, analyzer: "atomicfield"}] != nil {
		t.Error("malformed directive must not suppress anything")
	}
}
