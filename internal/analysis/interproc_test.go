package analysis_test

import (
	"go/types"
	"strings"
	"testing"

	"parapll/internal/analysis"
)

// loadInterproc loads the iptest corpus and builds its call graph.
func loadInterproc(t *testing.T) (*analysis.Package, *analysis.Program) {
	t.Helper()
	pkg, err := analysis.LoadDir("testdata/interproc", "test/iptest")
	if err != nil {
		t.Fatal(err)
	}
	prog := analysis.BuildProgram([]*analysis.Package{pkg})
	return pkg, prog
}

func findFunc(t *testing.T, prog *analysis.Program, name string) *analysis.FuncInfo {
	t.Helper()
	for _, f := range prog.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("function %s not found in program", name)
	return nil
}

// loadNames lists the atomic.Pointer targets a summary says are loaded.
func loadNames(f *analysis.FuncInfo) []string {
	var names []string
	for obj := range f.Facts.LoadsPtr {
		names = append(names, obj.Name())
	}
	return names
}

// TestInterprocRecursion: the fixed point terminates on mutual
// recursion, and odd's snapshot load reaches both summaries.
func TestInterprocRecursion(t *testing.T) {
	_, prog := loadInterproc(t)
	for _, name := range []string{"odd", "even"} {
		if got := loadNames(findFunc(t, prog, name)); len(got) != 1 || got[0] != "snap" {
			t.Errorf("%s loads %v, want [snap] (odd directly, even through the recursion)", name, got)
		}
	}
}

// TestInterprocInterfaceDispatch: a call through Engine resolves to
// every implementation, and slow's lock acquisition reaches drive.
func TestInterprocInterfaceDispatch(t *testing.T) {
	_, prog := loadInterproc(t)
	drive := findFunc(t, prog, "drive")
	var callees []string
	for _, e := range drive.Edges {
		if e.Kind != analysis.EdgeCall || !e.Iface {
			continue
		}
		callees = append(callees, e.Callee.Name)
	}
	want := map[string]bool{"(fast).Run": true, "(*slow).Run": true}
	for _, c := range callees {
		delete(want, c)
	}
	if len(want) != 0 {
		t.Errorf("interface call did not resolve to %v (resolved: %v)", want, callees)
	}
	if got := loadNames(drive); len(got) != 1 || got[0] != "cur" {
		t.Errorf("drive should inherit slow's one load through the interface edge, got %v", got)
	}
}

// TestInterprocMethodValueRef: s.Run as a value is an EdgeRef whose
// facts stay out of pick's summary.
func TestInterprocMethodValueRef(t *testing.T) {
	_, prog := loadInterproc(t)
	pick := findFunc(t, prog, "pick")
	ref := false
	for _, e := range pick.Edges {
		if e.Callee.Name == "(*slow).Run" {
			if e.Kind != analysis.EdgeRef {
				t.Errorf("s.Run reference recorded as %s, want ref", e.Kind)
			}
			ref = true
		}
	}
	if !ref {
		t.Error("method value s.Run produced no edge")
	}
	if len(pick.Facts.LoadsPtr) != 0 {
		t.Error("EdgeRef must not propagate: pick inherited a load from an uninvoked method value")
	}
}

// TestInterprocLocalWaitGroup: the literal fanOut spawns under its
// local WaitGroup is its own node, reached by exactly one go edge, and
// its load stays in its own summary: a go edge does not propagate.
func TestInterprocLocalWaitGroup(t *testing.T) {
	_, prog := loadInterproc(t)
	fanOut := findFunc(t, prog, "fanOut")
	if len(fanOut.Facts.LoadsPtr) != 0 {
		t.Error("fanOut loads only on the goroutines it spawns; the go edge propagated the load")
	}
	if got := loadNames(findFunc(t, prog, "fanOut·func1")); len(got) != 1 || got[0] != "snap" {
		t.Errorf("the spawned literal calls current; it loads %v, want [snap]", got)
	}
	var spawned []string
	for _, e := range fanOut.Edges {
		if e.Kind == analysis.EdgeGo {
			spawned = append(spawned, e.Callee.Name)
		}
	}
	if len(spawned) != 1 || spawned[0] != "fanOut·func1" {
		t.Fatalf("fanOut's go edges = %v, want exactly its literal fanOut·func1", spawned)
	}
}

// TestInterprocLoadsTransitive: peek reaches the snapshot load only
// through current.
func TestInterprocLoadsTransitive(t *testing.T) {
	_, prog := loadInterproc(t)
	for _, name := range []string{"current", "peek"} {
		if got := loadNames(findFunc(t, prog, name)); len(got) != 1 || got[0] != "snap" {
			t.Errorf("%s loads %v, want [snap] (current directly, peek through it)", name, got)
		}
	}
}

// TestSummaryStability: two independent loads of the same corpus
// produce byte-identical summaries — the golden the analyzers' caching
// and determinism rest on.
func TestSummaryStability(t *testing.T) {
	render := func() string {
		pkg, prog := loadInterproc(t)
		var b strings.Builder
		for _, f := range prog.Funcs {
			b.WriteString(f.SummaryString(pkg.Fset))
			b.WriteByte('\n')
		}
		return b.String()
	}
	first, second := render(), render()
	if first != second {
		t.Errorf("summaries differ across re-loads:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	// Pin a few load-bearing lines so the golden is a real contract, not
	// just self-consistency.
	for _, want := range []string{
		"even: loads[snap]",
		"drive: loads[cur]",
		"peek: loads[snap]",
		"fanOut: -",
		"fanOut·func1: loads[snap]",
	} {
		if !strings.Contains(first, want+"\n") {
			t.Errorf("summary golden missing %q in:\n%s", want, first)
		}
	}
}

// TestInterprocRepoSeams loads the real module and asserts the two
// seams the analyzers depend on: the compaction pipeline's Query loads
// the live index, and core.Engine dispatch resolves to the concrete
// engines.
func TestInterprocRepoSeams(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide analysis skipped in -short")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	prog := analysis.BuildProgram(pkgs)

	var query *analysis.FuncInfo
	for _, f := range prog.Funcs {
		if f.Name == "(*Pipeline).Query" && strings.HasSuffix(f.Pkg.Path, "internal/compact") {
			query = f
		}
	}
	if query == nil {
		t.Fatal("(*Pipeline).Query not found in internal/compact")
	}
	if got := loadNames(query); len(got) != 1 || got[0] != "live" {
		t.Errorf("Query loads %v, want [live]", got)
	}

	var core *analysis.Package
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Path, "internal/core") {
			core = pkg
		}
	}
	if core == nil {
		t.Fatal("internal/core not loaded")
	}
	engine, ok := core.Types.Scope().Lookup("Engine").(*types.TypeName)
	if !ok {
		t.Fatal("core.Engine not found")
	}
	iface, ok := engine.Type().Underlying().(*types.Interface)
	if !ok {
		t.Fatal("core.Engine is not an interface")
	}
	var run *types.Func
	for i := 0; i < iface.NumExplicitMethods(); i++ {
		if m := iface.ExplicitMethod(i); m.Name() == "Run" {
			run = m
		}
	}
	if run == nil {
		t.Fatal("Engine.Run not found")
	}
	impls := prog.Implementations(run)
	names := make(map[string]bool)
	for _, f := range impls {
		names[f.Name] = true
	}
	for _, want := range []string{"(PerRoot).Run", "(Batched).Run"} {
		if !names[want] {
			t.Errorf("Engine.Run dispatch missing %s (got %v)", want, names)
		}
	}
}
