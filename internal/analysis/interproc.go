// interproc.go is the interprocedural layer under the snapgen
// analyzer: a lightweight call graph
// over every function declaration and function literal in the loaded
// packages, plus a per-function fact summary propagated bottom-up to a
// fixed point. It is computed once per RunAnalyzers call (one AST walk
// per function, no SSA, no new dependencies) and handed to each Pass as
// Pass.Prog.
//
// Edges distinguish how control reaches the callee:
//
//   - EdgeCall: a plain or deferred call — the callee runs on the
//     caller's goroutine, so its facts (snapshot loads) flow into the
//     caller's summary.
//   - EdgeGo: a `go` statement — the callee runs on a new goroutine;
//     its facts do NOT flow into the spawner.
//   - EdgeRef: a function or method value that escapes without being
//     invoked here (stored, passed as a callback). Recorded for
//     call-graph consumers, never propagated: a registered handler's
//     facts are not the registrar's.
//
// Calls through interface methods are resolved to every named type in
// the loaded packages that implements the interface (types.Implements),
// so a summary survives the oracle.Oracle / core.Engine seams. Calls
// through plain function variables stay unresolved — a deliberate,
// documented hole (the repo invokes such values only for callbacks like
// OnPublish).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EdgeKind classifies how a call edge transfers control.
type EdgeKind uint8

const (
	// EdgeCall is a synchronous (plain or deferred) call on the caller's
	// goroutine; callee facts propagate to the caller.
	EdgeCall EdgeKind = iota
	// EdgeGo is a `go` statement; the callee runs concurrently and its
	// facts do not propagate to the spawner.
	EdgeGo
	// EdgeRef is a function value reference that is not invoked at this
	// site; facts do not propagate.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeGo:
		return "go"
	default:
		return "ref"
	}
}

// CallEdge is one resolved outgoing edge of a function.
type CallEdge struct {
	Callee *FuncInfo
	Kind   EdgeKind
	// Pos is the call (or `go`, or reference) site in the caller.
	Pos token.Pos
	// Iface marks edges resolved through an interface method: the
	// callee is one of possibly several implementations.
	Iface bool
}

// FuncFacts is the bottom-up summary of one function. After
// Program.resolve it includes everything reachable through EdgeCall
// edges; EdgeGo and EdgeRef edges contribute nothing.
type FuncFacts struct {
	// LoadsPtr maps atomic.Pointer fields (or package vars) whose Load
	// is reached on this goroutine to the first position reaching it.
	LoadsPtr map[types.Object]token.Pos
}

// ptrLoad is one direct atomic.Pointer Load site.
type ptrLoad struct {
	obj types.Object
	pos token.Pos
}

// FuncInfo is one node of the call graph: a function declaration or a
// function literal.
type FuncInfo struct {
	// Obj is the declared function object; nil for function literals.
	Obj *types.Func
	// Node is the *ast.FuncDecl or *ast.FuncLit.
	Node ast.Node
	// Body is the function body; nil for bodyless declarations.
	Body *ast.BlockStmt
	// Pkg is the package the function is declared in.
	Pkg *Package
	// Name is a human-readable name: "(*Pipeline).Compact" for methods,
	// "Open" for functions, "Open·func1" for literals.
	Name string
	// Edges are the outgoing call/go/ref edges in source order.
	Edges []CallEdge
	// Facts is the summary; transitive after Program resolution.
	Facts FuncFacts

	loads []ptrLoad
}

// Program is the interprocedural view of one RunAnalyzers invocation.
type Program struct {
	// Funcs lists every function and literal in deterministic order
	// (package load order, then file order, then source order).
	Funcs []*FuncInfo

	byObj  map[*types.Func]*FuncInfo
	byNode map[ast.Node]*FuncInfo
	named  []*types.Named
	impls  map[*types.Func][]*FuncInfo
}

// Implementations resolves an interface method to the declared methods
// of every named type in the program that implements the interface.
// Memoized per abstract method.
func (p *Program) Implementations(m *types.Func) []*FuncInfo {
	if out, ok := p.impls[m]; ok {
		return out
	}
	var out []*FuncInfo
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		p.impls[m] = nil
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		p.impls[m] = nil
		return nil
	}
	for _, named := range p.named {
		if named.TypeParams() != nil {
			continue // no generic instantiation tracking
		}
		if _, ok := named.Underlying().(*types.Interface); ok {
			continue
		}
		var target types.Type
		if types.Implements(named, iface) {
			target = named
		} else if ptr := types.NewPointer(named); types.Implements(ptr, iface) {
			target = ptr
		} else {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(target, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			if info := p.byObj[fn]; info != nil {
				out = append(out, info)
			}
		}
	}
	p.impls[m] = out
	return out
}

// BuildProgram constructs and resolves the call graph + summaries over
// the loaded packages.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		byObj:  make(map[*types.Func]*FuncInfo),
		byNode: make(map[ast.Node]*FuncInfo),
		impls:  make(map[*types.Func][]*FuncInfo),
	}

	// Pass 1: index every function declaration, every function literal,
	// and every named type (the implements-candidate universe). AST
	// order keeps Funcs deterministic across loads.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			var enclosing []string // name stack for literal labels
			litSeq := 0
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[x.Name].(*types.Func)
					info := &FuncInfo{Obj: fn, Node: x, Body: x.Body, Pkg: pkg, Name: funcDisplayName(fn, x)}
					p.Funcs = append(p.Funcs, info)
					p.byNode[x] = info
					if fn != nil {
						p.byObj[fn] = info
					}
					enclosing = []string{info.Name}
					litSeq = 0
				case *ast.FuncLit:
					litSeq++
					name := fmt.Sprintf("func%d", litSeq)
					if len(enclosing) > 0 {
						name = fmt.Sprintf("%s·func%d", enclosing[0], litSeq)
					}
					info := &FuncInfo{Node: x, Body: x.Body, Pkg: pkg, Name: name}
					p.Funcs = append(p.Funcs, info)
					p.byNode[x] = info
				case *ast.TypeSpec:
					if tn, ok := pkg.Info.Defs[x.Name].(*types.TypeName); ok {
						if named, ok := tn.Type().(*types.Named); ok {
							p.named = append(p.named, named)
						}
					}
				}
				return true
			})
		}
	}

	// Pass 2: walk each body for edges and direct facts.
	for _, info := range p.Funcs {
		if info.Body == nil {
			continue
		}
		w := &ipWalker{prog: p, info: info, pkg: info.Pkg}
		w.walk()
	}

	p.resolve()
	return p
}

// funcDisplayName renders "(*Pipeline).Compact" / "Open".
func funcDisplayName(fn *types.Func, decl *ast.FuncDecl) string {
	if fn == nil {
		return decl.Name.Name
	}
	if named := receiverNamed(fn); named != nil {
		recv := named.Obj().Name()
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
				recv = "*" + recv
			}
		}
		return fmt.Sprintf("(%s).%s", recv, fn.Name())
	}
	return fn.Name()
}

// ipWalker extracts edges and direct facts from one function body.
type ipWalker struct {
	prog *Program
	info *FuncInfo
	pkg  *Package

	goCalls    map[*ast.CallExpr]bool // calls that are GoStmt bodies
	invoked    map[*ast.FuncLit]EdgeKind
	calleeExpr map[ast.Expr]bool // the Fun expr of each visited call
}

func (w *ipWalker) walk() {
	w.goCalls = make(map[*ast.CallExpr]bool)
	w.invoked = make(map[*ast.FuncLit]EdgeKind)
	w.calleeExpr = make(map[ast.Expr]bool)
	ast.Inspect(w.info.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			w.goCalls[x.Call] = true
		case *ast.CallExpr:
			w.call(x)
		case *ast.FuncLit:
			// Pre-order guarantees any invoking CallExpr was classified
			// first. The literal's own body is its own FuncInfo.
			kind, ok := w.invoked[x]
			if !ok {
				kind = EdgeRef
			}
			if lit := w.prog.byNode[x]; lit != nil {
				w.addEdge(lit, kind, x.Pos(), false)
			}
			return false
		case *ast.SelectorExpr:
			w.methodValue(x)
		case *ast.Ident:
			w.funcValue(x)
		}
		return true
	})
}

// call classifies one call expression: atomic/file direct facts, plus
// callee edges.
func (w *ipWalker) call(call *ast.CallExpr) {
	w.calleeExpr[ast.Unparen(call.Fun)] = true
	isGo := w.goCalls[call]
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if isGo {
			w.invoked[lit] = EdgeGo
		} else {
			w.invoked[lit] = EdgeCall
		}
		return
	}

	fn := calleeFunc(w.pkg.Info, call)

	// Direct facts on the spawner's goroutine only: for `go f(x)` the
	// call itself runs elsewhere (its args were visited by Inspect).
	if !isGo {
		w.callFacts(call, fn)
	}

	// Callee edges.
	kind := EdgeCall
	if isGo {
		kind = EdgeGo
	}
	var targets []*FuncInfo
	iface := false
	switch {
	case fn == nil:
		// Indirect call through a function variable: unresolvable.
	case isInterfaceMethod(fn):
		targets = w.prog.Implementations(fn)
		iface = true
	default:
		if info := w.prog.byObj[fn]; info != nil {
			targets = []*FuncInfo{info}
		}
	}
	for _, t := range targets {
		w.addEdge(t, kind, call.Pos(), iface)
	}
}

// callFacts records the direct (non-edge) fact of one synchronous call:
// an atomic.Pointer Load on a persistent target.
func (w *ipWalker) callFacts(call *ast.CallExpr, fn *types.Func) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || fn == nil || fn.Pkg() == nil || fn.Name() != "Load" || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	named := receiverNamed(fn)
	if named == nil || named.Obj().Name() != "Pointer" {
		return
	}
	if obj := persistentTarget(w.pkg.Info, sel.X); obj != nil {
		if w.info.Facts.LoadsPtr == nil {
			w.info.Facts.LoadsPtr = make(map[types.Object]token.Pos)
		}
		if _, seen := w.info.Facts.LoadsPtr[obj]; !seen {
			w.info.Facts.LoadsPtr[obj] = call.Pos()
		}
		w.info.loads = append(w.info.loads, ptrLoad{obj: obj, pos: call.Pos()})
	}
}

// methodValue records an EdgeRef for a method value that is not the
// callee of a call (s.handleQuery passed as a handler).
func (w *ipWalker) methodValue(sel *ast.SelectorExpr) {
	// The Sel ident is resolved here (or was the callee); keep funcValue
	// from re-recording it when Inspect visits the child ident.
	w.calleeExpr[sel.Sel] = true
	if w.calleeExpr[sel] {
		return
	}
	fn, ok := w.pkg.Info.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return
	}
	if info := w.prog.byObj[fn]; info != nil {
		w.addEdge(info, EdgeRef, sel.Pos(), false)
	}
}

// funcValue records an EdgeRef for a plain function name used as a
// value.
func (w *ipWalker) funcValue(id *ast.Ident) {
	if w.calleeExpr[id] {
		return
	}
	if w.pkg.Info.Defs[id] != nil {
		return // the declaration itself
	}
	fn, ok := w.pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return // methods handled via their selector
	}
	if info := w.prog.byObj[fn]; info != nil {
		w.addEdge(info, EdgeRef, id.Pos(), false)
	}
}

func (w *ipWalker) addEdge(callee *FuncInfo, kind EdgeKind, pos token.Pos, iface bool) {
	w.info.Edges = append(w.info.Edges, CallEdge{Callee: callee, Kind: kind, Pos: pos, Iface: iface})
}

// persistentTarget resolves the selector/ident an op acts on to a
// struct field or package-level variable — objects with an identity
// that outlives one function activation — or nil for locals.
func persistentTarget(info *types.Info, e ast.Expr) types.Object {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj = info.ObjectOf(x.Sel)
	case *ast.Ident:
		obj = info.ObjectOf(x)
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	if v.IsField() {
		return v
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v
	}
	return nil
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// resolve propagates the snapshot loads bottom-up, along EdgeCall
// edges, to a fixed point.
func (p *Program) resolve() {
	for changed := true; changed; {
		changed = false
		for _, fn := range p.Funcs {
			for _, e := range fn.Edges {
				if e.Kind != EdgeCall {
					continue
				}
				for obj := range e.Callee.Facts.LoadsPtr {
					if _, ok := fn.Facts.LoadsPtr[obj]; !ok {
						if fn.Facts.LoadsPtr == nil {
							fn.Facts.LoadsPtr = make(map[types.Object]token.Pos)
						}
						fn.Facts.LoadsPtr[obj] = e.Pos
						changed = true
					}
				}
			}
		}
	}
}

// SummaryString renders one function's summary in a stable, position-
// annotated form, used by the summary-stability golden test.
func (f *FuncInfo) SummaryString(fset *token.FileSet) string {
	if len(f.Facts.LoadsPtr) == 0 {
		return f.Name + ": -"
	}
	var names []string
	for obj := range f.Facts.LoadsPtr {
		names = append(names, obj.Name())
	}
	sort.Strings(names)
	return f.Name + ": loads[" + strings.Join(names, ",") + "]"
}
