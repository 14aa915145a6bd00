package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SnapGen enforces the snapshot-generation discipline of the serving
// path. The server publishes an immutable snapshot behind an
// atomic.Pointer and a monotonically increasing generation; correctness
// of every request and every cache entry rests on two conventions:
//
//  1. Load once per scope. A request (or any other scope) must load the
//     snapshot pointer exactly once and pass the loaded value down.
//     Loading it twice — directly, or once directly and once through a
//     callee on the same goroutine — is a TOCTOU: a concurrent publish
//     between the loads hands the scope two different generations
//     (PR 3's stale path-index carry-over bug was exactly this).
//
//  2. Cache keys carry the loaded generation. Any call taking a `gen
//     uint64` parameter (qcache.Wrap, Cache.Get, Cache.Put) must
//     receive a live generation value, never a constant; and in a
//     function that also publishes a snapshot, the generation handed to
//     the cache must be the same value stored into the snapshot.
//
// The double-load check counts loads reachable through EdgeCall edges,
// so splitting the second load into a helper does not hide it; `go`
// statements and stored callbacks start their own scope.
var SnapGen = &Analyzer{
	Name: "snapgen",
	Doc:  "atomic.Pointer snapshots load once per scope; cache generation arguments are live and match the published snapshot",
	// The snapshot/cache tree.
	Packages: []string{"internal/server", "internal/qcache", "internal/compact"},
	Run:      runSnapGen,
}

func runSnapGen(pass *Pass) error {
	for _, fn := range pass.Prog.Funcs {
		if fn.Pkg.Path != pass.PkgPath || fn.Body == nil {
			continue
		}
		checkDoubleLoad(pass, fn)
		checkGenArgs(pass, fn)
	}
	return nil
}

// checkDoubleLoad reports every load of the same atomic.Pointer after
// the first within one scope, counting both direct Load calls and loads
// reached through synchronous callees.
func checkDoubleLoad(pass *Pass, fn *FuncInfo) {
	type event struct {
		pos token.Pos
		via string // empty for a direct load
	}
	events := make(map[types.Object][]event)
	for _, l := range fn.loads {
		events[l.obj] = append(events[l.obj], event{pos: l.pos})
	}
	// A call site reaching a load counts once per object, even when an
	// interface call resolves to several loading implementations.
	sitePerObj := make(map[types.Object]map[token.Pos]bool)
	for _, e := range fn.Edges {
		if e.Kind != EdgeCall {
			continue
		}
		for obj := range e.Callee.Facts.LoadsPtr {
			if sitePerObj[obj] == nil {
				sitePerObj[obj] = make(map[token.Pos]bool)
			}
			if sitePerObj[obj][e.Pos] {
				continue
			}
			sitePerObj[obj][e.Pos] = true
			events[obj] = append(events[obj], event{pos: e.Pos, via: e.Callee.Name})
		}
	}
	for obj, evs := range events {
		if len(evs) < 2 {
			continue
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		first := pass.Fset.Position(evs[0].pos)
		for _, ev := range evs[1:] {
			how := "loaded again"
			if ev.via != "" {
				how = "loaded again via " + ev.via
			}
			pass.Reportf(ev.pos, "atomic pointer %s %s after the load at %s: a concurrent publish between the loads splits this scope across generations; load once and pass the value down",
				obj.Name(), how, first)
		}
	}
}

// checkGenArgs audits every call whose callee takes a `gen uint64`
// parameter.
func checkGenArgs(pass *Pass, fn *FuncInfo) {
	// Objects stored into a published snapshot's gen field in this
	// function: .Store(&T{... gen: X ...}) on an atomic pointer.
	storeGen := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		if callee == nil || callee.Name() != "Store" || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				kv, ok := m.(*ast.KeyValueExpr)
				if !ok {
					return true
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "gen" {
					if id, ok := ast.Unparen(kv.Value).(*ast.Ident); ok {
						if obj := pass.Info.ObjectOf(id); obj != nil {
							storeGen[obj] = true
						}
					}
				}
				return true
			})
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		if callee == nil {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok || sig.Variadic() {
			return true
		}
		for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
			p := sig.Params().At(i)
			if p.Name() != "gen" {
				continue
			}
			if b, ok := p.Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Uint64 {
				continue
			}
			arg := call.Args[i]
			if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil {
				pass.Reportf(arg.Pos(), "generation argument to %s is the constant %s: cache entries must be keyed by the loaded snapshot generation, or a publish invalidates nothing",
					callee.Name(), tv.Value)
				continue
			}
			// Same-scope consistency with a published snapshot.
			if len(storeGen) == 0 {
				continue
			}
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil && !storeGen[obj] {
					pass.Reportf(arg.Pos(), "generation argument %s to %s is not the generation stored into the snapshot published in this scope: cache and snapshot would disagree",
						id.Name, callee.Name())
				}
			}
		}
		return true
	})
}
