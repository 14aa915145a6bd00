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

func TestLockOrder(t *testing.T) {
	// Both halves of the corpus: the lock graph and blocking calls under a
	// write lock (locked.go), and direct blocking sites under any lock
	// (blocking.go).
	analysistest.Run(t, "testdata/lockorder", analysis.LockOrder, "test/internal/compact/lockordertest")
}

// TestLockedBlocking loads the lockorder corpus under the cluster tree,
// where the cluster deadlock class lives: the direct blocking sites of
// blocking.go must be reported there exactly as under compact.
func TestLockedBlocking(t *testing.T) {
	analysistest.Run(t, "testdata/lockorder", analysis.LockOrder, "test/internal/cluster/locktest")
}

// TestLockedBlockingApplies pins lockorder's gate: the cluster/mpi/task
// tree plus the compact/wal/server pipeline and qcache, and nothing of
// the lock-free label and graph packages.
func TestLockedBlockingApplies(t *testing.T) {
	for path, want := range map[string]bool{
		"parapll/internal/cluster": true,
		"parapll/internal/mpi":     true,
		"parapll/internal/task":    true,
		"parapll/internal/trace":   true,
		"parapll/internal/label":   false,
		"parapll/internal/server":  true,
		"parapll/internal/compact": true,
		"parapll/internal/wal":     true,
		"parapll/internal/qcache":  true,
		"parapll/internal/graph":   false,
		"test/internal/mpi/fake":   true,
	} {
		if got := analysis.LockOrder.Applies(path); got != want {
			t.Errorf("LockOrder.Applies(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestLockedBlockingUngated loads the lockorder corpus under internal
// packages outside the gate and expects silence although the code is
// full of locked blocking operations.
func TestLockedBlockingUngated(t *testing.T) {
	for _, path := range []string{"test/internal/label/locktest", "test/internal/graph/locktest"} {
		if findings := runOn(t, "testdata/lockorder", path, analysis.LockOrder); len(findings) > 0 {
			t.Errorf("%s: %d findings outside the gated packages, first: %s", path, len(findings), findings[0])
		}
	}
}

// TestLockOrderUngated loads the lockorder corpus under a path outside
// the gated trees and expects silence despite the seeded cycles.
func TestLockOrderUngated(t *testing.T) {
	for _, f := range runOn(t, "testdata/lockorder", "test/other/lockordertest", analysis.LockOrder) {
		t.Errorf("finding outside the gated packages: %s", f)
	}
}

func TestSnapGen(t *testing.T) {
	analysistest.Run(t, "testdata/snapgen", analysis.SnapGen, "test/internal/server/snaptest")
}

func TestDurability(t *testing.T) {
	analysistest.Run(t, "testdata/durability", analysis.Durability, "test/internal/wal/durtest")
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
