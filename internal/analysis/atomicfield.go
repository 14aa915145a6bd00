package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField enforces all-or-nothing atomicity, seeded by inference
// over each package (the repo's known hot spots — core.Progress, the
// metrics instruments, the mpi traffic counters, server snapshot/loader
// pointers — all use typed atomics and are covered by the copy check):
//
//  1. Any field or variable that is accessed through a sync/atomic
//     function anywhere in the package (atomic.LoadUint32(&dist[v]),
//     atomic.AddInt64(&s.n, 1), ...) must be accessed through sync/atomic
//     everywhere: one plain load or store next to a CAS loop is a data
//     race the race detector only catches when the interleaving happens.
//  2. A value of a struct type with typed atomic fields (atomic.Int64,
//     atomic.Pointer, ...) must not be copied: the copy is torn and the
//     original's guarantees do not transfer. (go vet's copylocks does
//     not cover the sync/atomic types — they carry no sync.Locker.)
//
// Initialization before a value is shared is held to the same rule:
// there is no suppression directive, so initialize through sync/atomic
// too (or build the value in a variable nothing accesses atomically).
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "fields accessed via sync/atomic must never be accessed non-atomically; atomic-bearing structs must not be copied",
	Run:  runAtomicField,
}

// isAtomicFunc reports whether fn is one of the sync/atomic access
// functions taking an address (LoadT, StoreT, AddT, SwapT, CompareAndSwapT...).
func isAtomicFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "Or", "And"} {
		if strings.HasPrefix(fn.Name(), prefix) {
			return true
		}
	}
	return false
}

// hasAtomicTypedFields reports whether t's underlying struct contains a
// sync/atomic typed field (directly or through nested structs).
func hasAtomicTypedFields(t types.Type) bool {
	return hasAtomicTypedFieldsRec(t, make(map[types.Type]bool))
}

func hasAtomicTypedFieldsRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	t = types.Unalias(t)
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			return true
		}
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if hasAtomicTypedFieldsRec(s.Field(i).Type(), seen) {
			return true
		}
	}
	return false
}

func runAtomicField(pass *Pass) error {
	info := pass.Info

	// Pass 1: find the atomically accessed roots and remember the exact
	// AST nodes sanctioned by appearing as &expr inside an atomic call.
	atomicFields := make(map[types.Object]bool) // struct fields: &s.f
	atomicElems := make(map[types.Object]bool)  // slice/array vars or fields: &a[i]
	sanctioned := make(map[ast.Node]bool)       // the expr under & in an atomic call

	markRoot := func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				atomicFields[sel.Obj()] = true
			}
		case *ast.IndexExpr:
			switch base := ast.Unparen(x.X).(type) {
			case *ast.Ident:
				if obj := info.ObjectOf(base); obj != nil {
					atomicElems[obj] = true
				}
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[base]; ok && sel.Kind() == types.FieldVal {
					atomicElems[sel.Obj()] = true
				}
			}
		}
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFunc(calleeFunc(info, call)) {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			if addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && addr.Op == token.AND {
				target := ast.Unparen(addr.X)
				markRoot(target)
				sanctioned[target] = true
			}
			return true
		})
	}

	// Pass 2: flag plain accesses to the atomic roots and copies of
	// atomic-bearing struct values.
	reportPlain := func(n ast.Node, what, name string) {
		pass.Reportf(n.Pos(), "non-atomic access to %s %s, which is accessed with sync/atomic elsewhere", what, name)
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sanctioned[n] {
				return false
			}
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal && atomicFields[sel.Obj()] {
					reportPlain(x, "field", types.ExprString(x))
					return false
				}
			case *ast.IndexExpr:
				switch base := ast.Unparen(x.X).(type) {
				case *ast.Ident:
					if obj := info.ObjectOf(base); obj != nil && atomicElems[obj] {
						reportPlain(x, "element of", base.Name)
						return false
					}
				case *ast.SelectorExpr:
					if sel, ok := info.Selections[base]; ok && sel.Kind() == types.FieldVal && atomicElems[sel.Obj()] {
						reportPlain(x, "element of", types.ExprString(base))
						return false
					}
				}
			case *ast.RangeStmt:
				// Ranging with a value variable copies the elements out.
				if x.Value == nil {
					return true
				}
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil && atomicElems[obj] {
						reportPlain(x.X, "elements of", id.Name)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if i >= len(x.Lhs) {
						break
					}
					// A blank assignment discards the value: no copy escapes.
					if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
						continue
					}
					checkAtomicCopy(pass, rhs)
				}
				return true
			case *ast.ValueSpec:
				for _, v := range x.Values {
					checkAtomicCopy(pass, v)
				}
				return true
			}
			return true
		})
	}
	return nil
}

// checkAtomicCopy flags expressions whose evaluation copies a value of
// an atomic-bearing struct type: dereferencing a pointer to one, or
// naming a variable/field of one in a value context. Composite literals
// and function results are construction, not copies, and are allowed.
func checkAtomicCopy(pass *Pass, e ast.Expr) {
	e = ast.Unparen(e)
	var t types.Type
	switch x := e.(type) {
	case *ast.StarExpr:
		if tv, ok := pass.Info.Types[e]; ok {
			t = tv.Type
		}
		_ = x
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		if tv, ok := pass.Info.Types[e]; ok {
			t = tv.Type
		}
	default:
		return
	}
	if t == nil {
		return
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return
	}
	if hasAtomicTypedFields(t) {
		pass.Reportf(e.Pos(), "copying a value of type %s, which contains sync/atomic fields; use a pointer", t.String())
	}
}
