package analysis_test

import (
	"testing"

	"parapll/internal/analysis"
)

// TestVetCleanOnRepo is the enforcement test: the full analyzer suite
// must run clean over the whole module. Deleting a runtime.KeepAlive in
// internal/label or adding a plain read next to a CAS loop turns this
// test — and therefore tier-1 — red.
func TestVetCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide analysis skipped in -short")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	findings, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
