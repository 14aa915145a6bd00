package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// rootIdent peels selectors, indexing, derefs and parens off e and
// returns the leftmost identifier, or nil (e.g. for call results).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// rootObject resolves rootIdent(e) to its object, or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	return info.ObjectOf(id)
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (function, method or method value), or nil for builtins, conversions
// and indirect calls through plain variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.ObjectOf(id).(*types.Builtin)
	return ok
}

// isKeepAlive reports whether call is runtime.KeepAlive(...).
func isKeepAlive(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == "KeepAlive" && fn.Pkg() != nil && fn.Pkg().Path() == "runtime"
}

// funcExits returns the lexical exit positions of body: every return
// statement (in the function itself, not nested function literals) plus
// the closing brace.
func funcExits(body *ast.BlockStmt) []token.Pos {
	var exits []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exits = append(exits, n.Pos())
		}
		return true
	})
	return append(exits, body.End())
}

// namedOrPtrStruct returns the underlying struct of t, looking through
// one pointer, or nil.
func namedOrPtrStruct(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, _ := t.Underlying().(*types.Struct)
	return s
}
