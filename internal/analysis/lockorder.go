package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder checks the mutexes of the concurrency-heavy tree with one
// lexical walk per function — source order, flow-insensitive: a
// Lock/RLock/TryLock/TryRLock marks a mutex held until the matching
// unlock in the same function, a deferred unlock holds it to the end,
// and a function literal (a go or defer body, a callback) starts with
// nothing held — and flags three things:
//
//  1. Lock-order cycles. Every persistent mutex acquired, directly or
//     through a callee, while another is held is an edge of one
//     program-wide graph. If one path acquires A then B and another B
//     then A (or re-acquires A while holding it), two goroutines can
//     each hold one lock and wait forever for the other. The pipeline's
//     documented order is compactMu → Pipeline.mu (the writer mutex;
//     queries take no lock) → wal.Log.mu; this keeps that order a fact.
//
//  2. Blocking calls under a write lock. Calling a function whose
//     summary says it (transitively) blocks on another goroutine — a
//     channel op, a Wait on a shared object, mpi traffic — while a
//     persistent mutex is write-locked stalls every reader and writer of
//     that lock for as long as the peer takes. Blocking on
//     function-local channels and WaitGroups is exempt (see
//     interproc.go), which is exactly why compact.Compact may run the
//     fan-out/fan-in build engines under compactMu. Under a read lock
//     the call is allowed: readers do not starve each other.
//
//  3. Blocking operations under any lock. A channel send or receive
//     (range included), a select without a default clause, an mpi
//     collective or point-to-point call, or a Wait inside a critical
//     section — read or write lock, local or persistent mutex, any
//     operand. A rank that blocks there can deadlock against a peer
//     that needs the same lock to make the matching call, and the
//     runtime cannot detect it: every rank still has runnable
//     goroutines. sync.Cond.Wait releases its lock while blocked and is
//     exempt, as is a select with a default clause (it cannot block).
//
// Only persistent mutexes (struct fields, package-level vars) take part
// in 1 and 2: a local mutex cannot be contended across call paths that
// don't share it. Calls through plain function variables (e.g. the
// OnPublish callback) are not resolved — a documented hole shared with
// the rest of the interprocedural layer.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock-acquisition graph over cluster/mpi/task/trace/compact/wal/server/qcache: no cycles, no blocking call under a write lock, no channel op, mpi call or Wait under any lock",
	// The tree whose mutexes nest across package boundaries and whose
	// ranks and pipelines wait on each other.
	Packages: []string{
		"internal/cluster", "internal/mpi", "internal/task", "internal/trace",
		"internal/compact", "internal/wal", "internal/server", "internal/qcache",
	},
	Run: runLockOrder,
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
	res := pass.Prog.Cached("lockorder", func() interface{} {
		return computeLockOrder(pass.Prog, pass.Analyzer)
	}).(*lockOrderResult)
	for _, f := range res.findings {
		if f.pkgPath == pass.PkgPath {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

// computeLockOrder walks every function of every package a applies to
// once, accumulating lock edges and blocking findings, then runs cycle
// detection over the whole edge set.
func computeLockOrder(prog *Program, a *Analyzer) *lockOrderResult {
	res := &lockOrderResult{}
	edges := make(map[[2]types.Object]*lockEdge)
	var edgeOrder [][2]types.Object

	for _, fn := range prog.Funcs {
		if fn.Body == nil || !a.Applies(fn.Pkg.Path) {
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

// lockHeld is one currently held mutex in the lexical scan.
type lockHeld struct {
	label string
	pos   token.Pos
	write bool
	// persistent marks a struct field or package-level var: only those
	// take part in the order graph and the blocking-call rule.
	persistent bool
}

// lockOrderWalker carries the lexical lock state through one function
// body: it records acquisition edges and checks callee summaries and
// the body's direct blocking sites against the locks held.
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
		if op, ok := w.fn.blocks[n]; ok {
			w.blocked(n.Pos(), op)
		}
		return true
	})
}

// blocked reports a direct blocking site while any mutex is held,
// naming the earliest acquisition still held.
func (w *lockOrderWalker) blocked(pos token.Pos, op string) {
	var first lockHeld
	for _, h := range w.held {
		if !first.pos.IsValid() || h.pos < first.pos {
			first = h
		}
	}
	if first.pos.IsValid() {
		w.report(pos, "%s while holding %s (locked at %s): a peer needing the lock cannot make the matching call",
			op, first.label, w.fn.Pkg.Fset.Position(first.pos))
	}
}

func (w *lockOrderWalker) report(pos token.Pos, format string, args ...interface{}) {
	w.res.findings = append(w.res.findings, lockOrderFinding{pkgPath: w.fn.Pkg.Path, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// mutexCall tracks a Lock/Unlock-family call on the mutex sel.X, keyed
// by its field or package var, else by the variable it hangs off.
func (w *lockOrderWalker) mutexCall(call *ast.CallExpr, sel *ast.SelectorExpr) {
	info := w.fn.Pkg.Info
	obj := persistentTarget(info, sel.X)
	persistent := obj != nil
	if !persistent {
		obj = rootObject(info, sel.X)
	}
	if obj == nil {
		return
	}
	switch name := sel.Sel.Name; name {
	case "Lock", "TryLock", "RLock", "TryRLock":
		// A Try* acquisition counts as held from here: the repo's Try
		// users return early on failure.
		label := types.ExprString(sel.X)
		for heldObj, h := range w.held {
			if persistent && h.persistent {
				w.addEdge(heldObj, obj, h.label, label, call.Pos())
			}
		}
		w.held[obj] = lockHeld{label: label, pos: call.Pos(), write: name == "Lock" || name == "TryLock", persistent: persistent}
	case "Unlock", "RUnlock":
		if !w.deferUnlock[call] {
			delete(w.held, obj)
		}
	}
}

func (w *lockOrderWalker) call(call *ast.CallExpr) {
	info := w.fn.Pkg.Info
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && isSync(tv.Type, "Mutex", "RWMutex") {
			w.mutexCall(call, sel)
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
				if h.persistent {
					w.addEdge(heldObj, obj, h.label, label, call.Pos())
				}
			}
		}
		// Blocking callee under a write lock.
		if t.Facts.Blocking.IsValid() {
			for _, h := range w.held {
				if h.write && h.persistent {
					w.report(call.Pos(), "call to %s can block (%s) while %s is write-locked (at %s): every contender stalls until the peer acts",
						t.Name, t.Facts.BlockingDesc, h.label, w.fn.Pkg.Fset.Position(h.pos))
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
