package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Durability machine-checks the WAL/checkpoint contract from PR 8 on
// the packages that own durable state:
//
//  1. Barrier errors are handled. The return value of (*os.File).Sync,
//     (*os.File).Truncate and WriteAtomic is the durability barrier
//     itself — discarding it (a bare call statement, a blank
//     assignment, or a deferred call whose error vanishes) means a
//     failed fsync is reported to the client as a durable write.
//     (*os.File).Close is gentler: `defer f.Close()` on read paths and
//     an explicit `_ = f.Close()` acknowledgment are fine, but a bare
//     `f.Close()` statement silently loses delayed-write errors.
//
//  2. Fsync happens before apply. On every call path, the in-memory
//     index mutation (a call to a method named InsertEdge, or to a
//     function that transitively applies without syncing) must come
//     after the last durable write in its scope — log-then-apply, never
//     apply-then-log. Replay paths are exempt structurally: an apply
//     whose arguments derive from a durable source (the return of a
//     syncing function, or a method on a type that owns a syncing
//     method, e.g. wal.Log.Updates) is re-applying already-logged
//     updates, not creating new unlogged state.
//
// Calls to functions that both apply and sync count as durable at the
// call site: they established the ordering internally and are checked
// where they are defined.
var Durability = &Analyzer{
	Name: "durability",
	Doc:  "WAL/checkpoint paths check Sync/Close/WriteAtomic errors and never apply in-memory state before the durable write",
	// The durable-state tree.
	Packages: []string{"internal/wal", "internal/compact", "internal/fileio"},
	Run:      runDurability,
}

func runDurability(pass *Pass) error {
	syncTypes := pass.Prog.Cached("durability.syncTypes", func() interface{} {
		return collectSyncTypes(pass.Prog)
	}).(map[*types.Named]bool)
	for _, fn := range pass.Prog.Funcs {
		if fn.Pkg.Path != pass.PkgPath || fn.Body == nil {
			continue
		}
		checkBarrierErrors(pass, fn)
		checkFsyncBeforeApply(pass, fn, syncTypes)
	}
	return nil
}

// collectSyncTypes gathers every named type owning a method that
// (transitively) syncs: a value produced by any method of such a type
// is treated as durably derived.
func collectSyncTypes(prog *Program) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	for _, fn := range prog.Funcs {
		if fn.Obj == nil || !fn.Facts.Syncs {
			continue
		}
		if named := receiverNamed(fn.Obj); named != nil {
			out[named] = true
		}
	}
	return out
}

// fileMethod reports whether call invokes the named method on *os.File.
func fileMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == "os" &&
		receiverNamed(fn) != nil && receiverNamed(fn).Obj().Name() == "File"
}

// barrierCall reports whether call is a durability barrier whose error
// must always be handled, returning its display name.
func barrierCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if fileMethod(info, call, "Sync") {
		return "Sync", true
	}
	if fileMethod(info, call, "Truncate") {
		return "Truncate", true
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Name() == "WriteAtomic" {
		return "WriteAtomic", true
	}
	return "", false
}

// checkBarrierErrors walks one body for discarded barrier errors.
func checkBarrierErrors(pass *Pass, fn *FuncInfo) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if name, ok := barrierCall(pass.Info, x.Call); ok {
				pass.Reportf(x.Pos(), "%s deferred: its error is unobservable, so a failed durability barrier looks like success", name)
			}
		case *ast.ExprStmt:
			call, ok := x.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := barrierCall(pass.Info, call); ok {
				pass.Reportf(x.Pos(), "%s error discarded: a failed durability barrier must surface, not vanish", name)
			} else if fileMethod(pass.Info, call, "Close") {
				pass.Reportf(x.Pos(), "Close error discarded on a durability path: check it, or acknowledge with `_ = f.Close()` where only the scratch handle dies")
			}
		case *ast.AssignStmt:
			if len(x.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			name, isBarrier := barrierCall(pass.Info, call)
			if !isBarrier {
				return true
			}
			allBlank := true
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
			}
			if allBlank {
				pass.Reportf(x.Pos(), "%s error blanked: a failed durability barrier must surface, not vanish", name)
			}
		}
		return true
	})
}

// durEvent is one ordered durability-relevant event in a body.
type durEvent struct {
	pos   token.Pos
	apply bool
	desc  string
}

// checkFsyncBeforeApply verifies the log-then-apply order within one
// body: no non-exempt apply event may precede a later durable write.
func checkFsyncBeforeApply(pass *Pass, fn *FuncInfo, syncTypes map[*types.Named]bool) {
	derived := derivedObjects(pass, fn, syncTypes)
	durableExpr := func(e ast.Expr) bool { return isDurableExpr(pass, fn, e, syncTypes, derived) }

	var events []durEvent
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		var infos []*FuncInfo
		if callee != nil {
			if isInterfaceMethod(callee) {
				infos = pass.Prog.Implementations(callee)
			} else if t := pass.Prog.FuncOf(callee); t != nil {
				infos = []*FuncInfo{t}
			}
		}
		syncs := fileMethod(pass.Info, call, "Sync")
		applies := false
		if callee != nil && callee.Name() == "InsertEdge" && !allSync(infos) {
			applies = true
		}
		for _, t := range infos {
			if t.Facts.Syncs {
				syncs = true
			}
			if t.Facts.Applies && !t.Facts.Syncs {
				applies = true
			}
		}
		if applies {
			// Replay exemption: arguments derived from a durable source
			// re-apply already-logged state.
			exempt := false
			for _, arg := range call.Args {
				if durableExpr(arg) {
					exempt = true
					break
				}
			}
			if !exempt {
				desc := "InsertEdge"
				if callee != nil {
					desc = callee.Name()
				}
				events = append(events, durEvent{pos: call.Pos(), apply: true, desc: desc})
			}
			return true
		}
		if syncs {
			events = append(events, durEvent{pos: call.Pos(), desc: types.ExprString(call.Fun)})
		}
		return true
	})

	for i, ev := range events {
		if !ev.apply {
			continue
		}
		for _, later := range events[i+1:] {
			if !later.apply && later.pos > ev.pos {
				pass.Reportf(ev.pos, "in-memory apply (%s) precedes the durable write at %s: the order is fsync-then-apply, or a crash between them loses acknowledged state",
					ev.desc, pass.Fset.Position(later.pos))
				break
			}
		}
	}
}

// allSync reports whether infos is non-empty and every member syncs (a
// durable apply, checked where it is defined).
func allSync(infos []*FuncInfo) bool {
	if len(infos) == 0 {
		return false
	}
	for _, t := range infos {
		if !t.Facts.Syncs {
			return false
		}
	}
	return true
}

// derivedObjects computes, to a fixed point over the body's
// assignments, the set of local objects whose values derive from a
// durable source.
func derivedObjects(pass *Pass, fn *FuncInfo, syncTypes map[*types.Named]bool) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	assign := func(lhs ast.Expr, from ast.Expr) bool {
		if !isDurableExpr(pass, fn, from, syncTypes, derived) {
			return false
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil || derived[obj] {
			return false
		}
		derived[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				if len(x.Rhs) == 1 {
					for _, lhs := range x.Lhs {
						if assign(lhs, x.Rhs[0]) {
							changed = true
						}
					}
				} else {
					for i := range x.Rhs {
						if i < len(x.Lhs) && assign(x.Lhs[i], x.Rhs[i]) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if x.Key != nil && assign(x.Key, x.X) {
					changed = true
				}
				if x.Value != nil && assign(x.Value, x.X) {
					changed = true
				}
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if len(vs.Values) == 1 {
							if assign(name, vs.Values[0]) {
								changed = true
							}
						} else if i < len(vs.Values) {
							if assign(name, vs.Values[i]) {
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}
	return derived
}

// isDurableExpr reports whether e (or a subexpression) produces a value
// from a durable source: a call to a syncing function, a method on a
// type owning a syncing method, or a mention of an already-derived
// object.
func isDurableExpr(pass *Pass, fn *FuncInfo, e ast.Expr, syncTypes map[*types.Named]bool, derived map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := pass.Info.ObjectOf(x); obj != nil && derived[obj] {
				found = true
			}
		case *ast.CallExpr:
			callee := calleeFunc(pass.Info, x)
			if callee == nil {
				return true
			}
			if t := pass.Prog.FuncOf(callee); t != nil && t.Facts.Syncs {
				found = true
				return false
			}
			if named := receiverNamed(callee); named != nil && syncTypes[named] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
