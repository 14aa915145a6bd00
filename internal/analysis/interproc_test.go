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

// TestInterprocRecursion: the fixed point terminates on mutual
// recursion, and odd's channel receive reaches both summaries.
func TestInterprocRecursion(t *testing.T) {
	_, prog := loadInterproc(t)
	odd := findFunc(t, prog, "odd")
	even := findFunc(t, prog, "even")
	if !odd.Facts.Blocking.IsValid() {
		t.Error("odd blocks directly on b.ch; summary says it does not block")
	}
	if !even.Facts.Blocking.IsValid() {
		t.Error("even reaches odd's receive through the recursion; summary says it does not block")
	}
	if !strings.Contains(even.Facts.BlockingDesc, "odd") {
		t.Errorf("even's blocking chain should name odd, got %q", even.Facts.BlockingDesc)
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
	if len(drive.Facts.Acquires) != 1 {
		t.Errorf("drive should inherit slow's one acquisition through the interface edge, got %d", len(drive.Facts.Acquires))
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
	if len(pick.Facts.Acquires) != 0 {
		t.Error("EdgeRef must not propagate: pick inherited an acquisition from an uninvoked method value")
	}
}

// TestInterprocLocalWaitGroup: draining a function-local WaitGroup is
// internal fan-in, not external blocking; the spawned literal is its own
// node, reached by exactly one go edge.
func TestInterprocLocalWaitGroup(t *testing.T) {
	_, prog := loadInterproc(t)
	fanOut := findFunc(t, prog, "fanOut")
	if fanOut.Facts.Blocking.IsValid() {
		t.Errorf("wg is declared in fanOut's body; its Wait is internal fan-in, not external blocking (got %q)", fanOut.Facts.BlockingDesc)
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

// TestInterprocSyncsTransitive: save reaches the fsync only through
// barrier.
func TestInterprocSyncsTransitive(t *testing.T) {
	_, prog := loadInterproc(t)
	if !findFunc(t, prog, "barrier").Facts.Syncs {
		t.Error("barrier calls (*os.File).Sync directly; Syncs not set")
	}
	if !findFunc(t, prog, "save").Facts.Syncs {
		t.Error("save reaches Sync through barrier; Syncs not propagated")
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
		"even: blocks[odd → channel receive]",
		"drive: acquires[mu]",
		"save: syncs",
		"fanOut: -",
	} {
		if !strings.Contains(first, want+"\n") {
			t.Errorf("summary golden missing %q in:\n%s", want, first)
		}
	}
}

// TestInterprocRepoSeams loads the real module and asserts the two
// seams the analyzers depend on: the compaction pipeline's Update both
// locks and syncs, and core.Engine dispatch resolves to the concrete
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

	var update *analysis.FuncInfo
	for _, f := range prog.Funcs {
		if f.Name == "(*Pipeline).Update" && strings.HasSuffix(f.Pkg.Path, "internal/compact") {
			update = f
		}
	}
	if update == nil {
		t.Fatal("(*Pipeline).Update not found in internal/compact")
	}
	lockNames := make(map[string]bool)
	for obj := range update.Facts.Acquires {
		lockNames[obj.Name()] = true
	}
	if !lockNames["mu"] {
		t.Errorf("Update must acquire the pipeline mutex; summary has %v", lockNames)
	}
	if !update.Facts.Syncs {
		t.Error("Update appends to the WAL, which fsyncs; Syncs not set")
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
