package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the lock-acquisition graph of the concurrency-heavy
// tree — which persistent mutex is acquired while which other is held,
// both directly and through calls — and flags two things:
//
//  1. Cycles. If one path acquires A then B and another acquires B then
//     A (including through callees, and including re-acquiring A while
//     A is held), two goroutines can each hold one lock and wait
//     forever for the other. The pipeline's documented order is
//     compactMu → Pipeline.mu (the writer mutex; queries take no lock)
//     → wal.Log.mu; this analyzer keeps that order a fact.
//
//  2. Blocking calls under a write lock. lockedblocking flags blocking
//     operations lexically inside a critical section; lockorder
//     generalizes it through calls: invoking a function whose summary
//     says it (transitively) blocks on another goroutine — a channel
//     op, a Wait on a shared object, mpi traffic — while holding a
//     write lock stalls every reader and writer of that lock for as
//     long as the peer takes. Blocking on function-local channels and
//     WaitGroups is exempt (see interproc.go), which is exactly why
//     compact.Compact may run the fan-out/fan-in build engines under
//     compactMu.
//
// Only persistent mutexes (struct fields, package-level vars) take part:
// a local mutex cannot be contended across call paths that don't share
// it. Calls through plain function variables (e.g. the OnPublish
// callback) are not resolved — a documented hole shared with the rest
// of the interprocedural layer.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock-acquisition graph over compact/server/qcache/wal: no cycles, no blocking calls under a write lock",
	Run:  runLockOrder,
}

// lockOrderPackages gates the analyzer to the tree whose mutexes
// actually nest across package boundaries.
var lockOrderPackages = []string{
	"internal/compact", "internal/server", "internal/qcache", "internal/wal",
	"internal/cluster", "internal/mpi", "internal/task", "internal/trace",
}

func lockOrderApplies(pkgPath string) bool {
	for _, p := range lockOrderPackages {
		if strings.Contains(pkgPath, p) {
			return true
		}
	}
	return false
}

// lockEdge is one observed "acquired to while holding from" pair.
type lockEdge struct {
	from, to types.Object
	// pos is the first site establishing the edge; labels are the
	// source-level spellings at that site.
	pos                token.Pos
	fromLabel, toLabel string
	pkgPath            string
	fset               *token.FileSet
}

// lockOrderFinding is one diagnostic with the package it belongs to,
// so each Pass reports only its own slice of the program-wide result.
type lockOrderFinding struct {
	pkgPath string
	pos     token.Pos
	msg     string
}

type lockOrderResult struct {
	findings []lockOrderFinding
}

func runLockOrder(pass *Pass) error {
	if pass.Prog == nil || !lockOrderApplies(pass.PkgPath) {
		return nil
	}
	res := pass.Prog.Cached("lockorder", func() interface{} {
		return computeLockOrder(pass.Prog)
	}).(*lockOrderResult)
	for _, f := range res.findings {
		if f.pkgPath == pass.PkgPath {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

// computeLockOrder walks every function of every gated package once,
// accumulating lock edges and under-write-lock blocking findings, then
// runs cycle detection over the whole edge set.
func computeLockOrder(prog *Program) *lockOrderResult {
	res := &lockOrderResult{}
	edges := make(map[[2]types.Object]*lockEdge)
	var edgeOrder [][2]types.Object

	for _, fn := range prog.Funcs {
		if fn.Body == nil || !lockOrderApplies(fn.Pkg.Path) {
			continue
		}
		w := &lockOrderWalker{
			prog: prog, fn: fn, res: res,
			held:      make(map[types.Object]lockHeld),
			edges:     edges,
			edgeOrder: &edgeOrder,
		}
		w.walk()
	}

	reportLockCycles(edges, edgeOrder, res)
	return res
}

// lockHeld is one currently held persistent mutex in the lexical scan.
type lockHeld struct {
	label string
	pos   token.Pos
	write bool
}

// lockOrderWalker performs the same lexical (source-order,
// flow-insensitive) lock tracking as lockedblocking, but records
// acquisition edges and consults callee summaries instead of flagging
// direct blocking ops.
type lockOrderWalker struct {
	prog *Program
	fn   *FuncInfo
	res  *lockOrderResult

	held      map[types.Object]lockHeld
	edges     map[[2]types.Object]*lockEdge
	edgeOrder *[][2]types.Object

	goCalls     map[*ast.CallExpr]bool
	deferUnlock map[*ast.CallExpr]bool
}

func (w *lockOrderWalker) walk() {
	w.goCalls = make(map[*ast.CallExpr]bool)
	w.deferUnlock = make(map[*ast.CallExpr]bool)
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // its own FuncInfo, starts lock-free
		case *ast.GoStmt:
			w.goCalls[x.Call] = true
		case *ast.DeferStmt:
			// defer mu.Unlock() holds the lock to function end; any
			// other deferred call behaves like a plain call here.
			w.deferUnlock[x.Call] = true
		case *ast.CallExpr:
			w.call(x)
		}
		return true
	})
}

func (w *lockOrderWalker) call(call *ast.CallExpr) {
	info := w.fn.Pkg.Info
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		var recvType types.Type
		if tv, ok := info.Types[sel.X]; ok {
			recvType = tv.Type
		}
		if isSyncMutex(recvType) {
			name := sel.Sel.Name
			obj := persistentTarget(info, sel.X)
			switch name {
			case "Lock", "TryLock", "RLock", "TryRLock":
				if obj == nil {
					return // local mutex: no cross-path identity
				}
				label := types.ExprString(sel.X)
				for heldObj, h := range w.held {
					w.addEdge(heldObj, obj, h.label, label, call.Pos())
				}
				w.held[obj] = lockHeld{
					label: label,
					pos:   call.Pos(),
					write: name == "Lock" || name == "TryLock",
				}
			case "Unlock", "RUnlock":
				if obj != nil && !w.deferUnlock[call] {
					delete(w.held, obj)
				}
			}
			return
		}
	}

	if w.goCalls[call] {
		return // runs on a fresh goroutine, outside this critical section
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	var targets []*FuncInfo
	if isInterfaceMethod(fn) {
		targets = w.prog.Implementations(fn)
	} else if t := w.prog.byObj[fn]; t != nil {
		targets = []*FuncInfo{t}
	}
	for _, t := range targets {
		// Every mutex the callee (transitively) acquires nests inside
		// every mutex held here.
		acquired := make([]types.Object, 0, len(t.Facts.Acquires))
		for obj := range t.Facts.Acquires {
			acquired = append(acquired, obj)
		}
		sort.Slice(acquired, func(i, j int) bool { return acquired[i].Pos() < acquired[j].Pos() })
		for _, obj := range acquired {
			label := obj.Name() + " (via " + t.Name + ")"
			for heldObj, h := range w.held {
				w.addEdge(heldObj, obj, h.label, label, call.Pos())
			}
		}
		// Blocking callee under a write lock.
		if t.Facts.Blocking.IsValid() {
			for _, h := range w.held {
				if h.write {
					w.res.findings = append(w.res.findings, lockOrderFinding{
						pkgPath: w.fn.Pkg.Path,
						pos:     call.Pos(),
						msg: fmt.Sprintf("call to %s can block (%s) while %s is write-locked (at %s): every contender stalls until the peer acts",
							t.Name, t.Facts.BlockingDesc, h.label, w.fn.Pkg.Fset.Position(h.pos)),
					})
					break
				}
			}
		}
	}
}

func (w *lockOrderWalker) addEdge(from, to types.Object, fromLabel, toLabel string, pos token.Pos) {
	key := [2]types.Object{from, to}
	if _, ok := w.edges[key]; ok {
		return
	}
	w.edges[key] = &lockEdge{
		from: from, to: to, pos: pos,
		fromLabel: fromLabel, toLabel: toLabel,
		pkgPath: w.fn.Pkg.Path, fset: w.fn.Pkg.Fset,
	}
	*w.edgeOrder = append(*w.edgeOrder, key)
}

// reportLockCycles finds every elementary dependency cycle in the edge
// set (including self-edges: re-acquiring a held mutex) and reports each
// once, anchored at the cycle's earliest-recorded edge.
func reportLockCycles(edges map[[2]types.Object]*lockEdge, order [][2]types.Object, res *lockOrderResult) {
	// Adjacency in recorded order for determinism.
	next := make(map[types.Object][]types.Object)
	for _, key := range order {
		next[key[0]] = append(next[key[0]], key[1])
	}
	seen := make(map[string]bool) // canonical cycle key → reported

	for _, key := range order {
		e := edges[key]
		if e.from == e.to {
			res.findings = append(res.findings, lockOrderFinding{
				pkgPath: e.pkgPath,
				pos:     e.pos,
				msg: fmt.Sprintf("%s acquired while already held as %s: recursive acquisition self-deadlocks (sync mutexes are not reentrant)",
					e.toLabel, e.fromLabel),
			})
			continue
		}
		// Is e.from reachable from e.to? Then this edge closes a cycle.
		path := findPath(next, e.to, e.from)
		if path == nil {
			continue
		}
		cycle := append([]types.Object{e.from}, path...)
		canon := canonicalCycle(cycle)
		if seen[canon] {
			continue
		}
		seen[canon] = true
		var names []string
		for _, obj := range cycle {
			names = append(names, lockDisplayName(obj))
		}
		names = append(names, lockDisplayName(cycle[0]))
		// Name the edge closing the loop so the report shows both halves.
		back := edges[[2]types.Object{cycle[len(cycle)-1], e.from}]
		detail := ""
		if back != nil {
			detail = fmt.Sprintf("; opposite order at %s", back.fset.Position(back.pos))
		}
		res.findings = append(res.findings, lockOrderFinding{
			pkgPath: e.pkgPath,
			pos:     e.pos,
			msg: fmt.Sprintf("lock-order cycle %s: two goroutines can each hold one lock and wait on the other%s",
				strings.Join(names, " → "), detail),
		})
	}
}

// findPath returns the node path from start to goal (exclusive of
// start, inclusive of goal), or nil.
func findPath(next map[types.Object][]types.Object, start, goal types.Object) []types.Object {
	visited := map[types.Object]bool{start: true}
	var dfs func(from types.Object) []types.Object
	dfs = func(from types.Object) []types.Object {
		for _, to := range next[from] {
			if to == goal {
				return []types.Object{to}
			}
			if visited[to] {
				continue
			}
			visited[to] = true
			if rest := dfs(to); rest != nil {
				return append([]types.Object{to}, rest...)
			}
		}
		return nil
	}
	if path := dfs(start); path != nil {
		return append([]types.Object{start}, path[:len(path)-1]...)
	}
	return nil
}

// canonicalCycle renders a rotation-invariant key for a cycle.
func canonicalCycle(cycle []types.Object) string {
	var names []string
	for _, obj := range cycle {
		names = append(names, lockDisplayName(obj))
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// lockDisplayName renders "pkg.field" for a mutex object.
func lockDisplayName(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
