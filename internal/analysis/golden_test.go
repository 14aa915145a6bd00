package analysis_test

import (
	"path/filepath"
	"testing"

	"parapll/internal/analysis"
	"parapll/internal/analysis/analysistest"
)

func TestMmapKeepAlive(t *testing.T) {
	analysistest.Run(t, "testdata/mmapkeepalive", analysis.MmapKeepAlive, "test/mmaptest")
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, "testdata/atomicfield", analysis.AtomicField, "test/atomictest")
}

func TestInfGuard(t *testing.T) {
	analysistest.Run(t, "testdata/infguard", analysis.InfGuard, "test/inftest")
}

func TestSnapGen(t *testing.T) {
	analysistest.Run(t, "testdata/snapgen", analysis.SnapGen, "test/internal/server/snaptest")
}

// TestAnalyzerGates loads each analyzer's own corpus under a path outside
// every gate. A gated analyzer must skip the package and stay silent
// although its corpus is full of findings; an ungated one must still
// report them. The tests above load the same corpora inside the gates.
func TestAnalyzerGates(t *testing.T) {
	ungated := map[string]bool{"mmapkeepalive": true, "atomicfield": true, "infguard": true}
	for _, a := range analysis.All() {
		t.Run(a.Name, func(t *testing.T) {
			if gated := len(a.Packages) > 0; gated == ungated[a.Name] {
				t.Fatalf("gated = %v, want %v", gated, !ungated[a.Name])
			}
			findings := runOn(t, filepath.Join("testdata", a.Name), "test/other/"+a.Name, a)
			switch {
			case !ungated[a.Name]:
				for _, f := range findings {
					t.Errorf("finding outside the gated packages: %s", f)
				}
			case len(findings) == 0:
				t.Error("ungated analyzer reported nothing on its own corpus")
			}
		})
	}
}

// runOn loads the corpus in dir under pkgPath and returns what a finds.
func runOn(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) []analysis.Finding {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("every analyzer needs a corpus in %s: %v", dir, err)
	}
	findings, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}
