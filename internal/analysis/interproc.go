// interproc.go is the interprocedural layer under the lockorder,
// snapgen and durability analyzers: a lightweight call graph
// over every function declaration and function literal in the loaded
// packages, plus a per-function fact summary propagated bottom-up to a
// fixed point. It is computed once per RunAnalyzers call (one AST walk
// per function, no SSA, no new dependencies) and handed to each Pass as
// Pass.Prog.
//
// Edges distinguish how control reaches the callee:
//
//   - EdgeCall: a plain or deferred call — the callee runs on the
//     caller's goroutine, so its facts (blocking, lock acquisitions,
//     fsyncs, snapshot loads) flow into the caller's summary.
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
//
// The blocking fact is *external* blocking only: a channel op or Wait
// whose operand is declared inside the function body (a scratch errc or
// a local WaitGroup the function itself drains) cannot couple the
// caller to another component's critical section and is exempt. This is
// what lets compact.Compact call the build engines — which fan out
// workers and wg.Wait() on a local WaitGroup — while holding compactMu
// without a lockorder false positive. Every blocking operation, local
// operand or not, is also kept as a direct site of its function, which
// lockorder checks against the locks held lexically around it.
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
	// Blocking is the position of the first external blocking operation
	// reachable on this function's goroutine (channel op, no-default
	// select, Wait on a non-local object, mpi traffic), or NoPos.
	Blocking token.Pos
	// BlockingDesc names the operation, with the call chain prefixed
	// when the op is reached through callees.
	BlockingDesc string
	// Acquires maps persistent mutexes (struct fields or package-level
	// vars of type sync.Mutex/RWMutex) acquired on this goroutine to the
	// position where the acquisition is first reached from here.
	Acquires map[types.Object]token.Pos
	// Syncs reports whether a durable write barrier — (*os.File).Sync,
	// directly or transitively (e.g. through fileio.WriteAtomic) — is
	// reached on this goroutine.
	Syncs bool
	// Applies reports whether a non-durable in-memory index mutation (a
	// call to a method named InsertEdge that does not itself sync) is
	// reached on this goroutine. Calls to functions that both apply and
	// sync are treated as durable, not as applies: they established the
	// log-before-apply order internally.
	Applies bool
	// LoadsPtr maps atomic.Pointer fields (or package vars) whose Load
	// is reached on this goroutine to the first position reaching it.
	LoadsPtr map[types.Object]token.Pos
}

// applySite is one direct call to a method named InsertEdge, kept so
// the Applies fact can be decided after Syncs has converged.
type applySite struct {
	pos token.Pos
	// callees are the resolved implementations (one for a concrete
	// call, several through an interface, empty if unresolvable).
	callees []*FuncInfo
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

	applySites []applySite
	loads      []ptrLoad
	// blocks maps each blocking operation lexically in this body (channel
	// send or receive, range over a channel, select without default,
	// Wait, mpi call), whatever its operand, to its description.
	blocks map[ast.Node]string
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
	cache  map[string]interface{}
}

// FuncOf returns the FuncInfo for a declared function, or nil for
// literals, bodyless and out-of-module functions.
func (p *Program) FuncOf(fn *types.Func) *FuncInfo { return p.byObj[fn] }

// Cached memoizes a program-wide computation under key, so an analyzer
// that builds whole-program state (the lock graph) computes it once and
// reports per-package slices of it.
func (p *Program) Cached(key string, compute func() interface{}) interface{} {
	if v, ok := p.cache[key]; ok {
		return v
	}
	v := compute()
	p.cache[key] = v
	return v
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
		cache:  make(map[string]interface{}),
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
	selectComm map[ast.Node]bool // comm ops guarded by an enclosing select
}

func (w *ipWalker) walk() {
	w.goCalls = make(map[*ast.CallExpr]bool)
	w.invoked = make(map[*ast.FuncLit]EdgeKind)
	w.calleeExpr = make(map[ast.Expr]bool)
	w.selectComm = make(map[ast.Node]bool)
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
		case *ast.UnaryExpr:
			// A receive that is a select clause's comm op blocks (or not)
			// as part of the select — selectStmt already accounted for it.
			if x.Op == token.ARROW && !w.selectComm[x] {
				w.site(x, "channel receive", w.external(x.X))
			}
		case *ast.SendStmt:
			if !w.selectComm[x] {
				w.site(x, "channel send", w.external(x.Chan))
			}
		case *ast.RangeStmt:
			if tv, ok := w.pkg.Info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.site(x.X, "channel receive (range)", w.external(x.X))
				}
			}
		case *ast.SelectStmt:
			w.selectStmt(x)
		case *ast.SelectorExpr:
			w.methodValue(x)
		case *ast.Ident:
			w.funcValue(x)
		}
		return true
	})
}

// selectStmt records a select with no default clause as a blocking
// site, external unless its channels are all function-local. Every
// clause's comm op is registered in selectComm so the generic
// send/receive cases skip it: the select, not the op, decides whether
// control blocks (pre-order traversal guarantees this runs before the
// comm ops are visited).
func (w *ipWalker) selectStmt(sel *ast.SelectStmt) {
	hasDefault := false
	external := false
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			w.selectComm[comm] = true
			if w.external(comm.Chan) {
				external = true
			}
		default:
			// Receive: find the arrow operand in the clause.
			ast.Inspect(cc.Comm, func(n ast.Node) bool {
				if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					w.selectComm[u] = true
					if w.external(u.X) {
						external = true
					}
					return false
				}
				return true
			})
		}
	}
	if !hasDefault {
		w.site(sel, "select without default", external)
	}
}

// call classifies one call expression: mutex/atomic/file/blocking
// direct facts, plus callee edges.
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
	if !isGo && fn != nil && fn.Name() == "InsertEdge" {
		w.info.applySites = append(w.info.applySites, applySite{pos: call.Pos(), callees: targets})
	}
}

// callFacts records the direct (non-edge) facts of one synchronous call.
func (w *ipWalker) callFacts(call *ast.CallExpr, fn *types.Func) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	var recvType types.Type
	if tv, ok := w.pkg.Info.Types[sel.X]; ok {
		recvType = tv.Type
	}

	// Mutex acquisitions on persistent (field / package-var) mutexes.
	if isSync(recvType, "Mutex", "RWMutex") {
		switch name {
		case "Lock", "TryLock", "RLock", "TryRLock":
			if obj := persistentTarget(w.pkg.Info, sel.X); obj != nil {
				if _, seen := w.info.Facts.Acquires[obj]; !seen {
					if w.info.Facts.Acquires == nil {
						w.info.Facts.Acquires = make(map[types.Object]token.Pos)
					}
					w.info.Facts.Acquires[obj] = call.Pos()
				}
			}
		}
		return
	}

	// atomic.Pointer Load on a persistent target.
	if fn != nil && fn.Name() == "Load" && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		if named := receiverNamed(fn); named != nil && named.Obj().Name() == "Pointer" {
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
		return
	}

	// Durable write barrier.
	if fn != nil && fn.Name() == "Sync" && fn.Pkg() != nil && fn.Pkg().Path() == "os" {
		w.info.Facts.Syncs = true
		return
	}

	// Blocking waits and mpi traffic. Cond.Wait releases its lock while
	// blocked: the sanctioned pattern, not a site.
	if name == "Wait" && !isSync(recvType, "Cond") {
		w.site(call, "Wait call "+types.ExprString(call.Fun), w.external(sel.X))
		return
	}
	if mpiBlockingCalls[name] && isMpiCarrier(w.pkg.Info, sel) {
		w.site(call, "mpi call "+types.ExprString(call.Fun), true)
	}
}

// mpiBlockingCalls are the method names treated as synchronous MPI
// traffic when invoked on an mpi-declared type.
var mpiBlockingCalls = map[string]bool{
	"Barrier": true, "Bcast": true, "Gather": true, "Allgather": true,
	"AllreduceInt64": true, "IAllgather": true, "Send": true, "Recv": true,
}

// isMpiCarrier reports whether the method selection is on a type that
// carries MPI traffic: declared in an mpi package, or one of the
// conventional World/Comm/Request names.
func isMpiCarrier(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, _ := info.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && strings.Contains(fn.Pkg().Path(), "mpi") {
		return true
	}
	if named := receiverNamed(fn); named != nil {
		switch named.Obj().Name() {
		case "World", "Comm", "Request":
			return true
		}
	}
	return false
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

// site records a direct blocking operation at n. It becomes the
// Blocking fact only when external: when its operand can couple this
// function to another goroutine.
func (w *ipWalker) site(n ast.Node, desc string, external bool) {
	if w.info.blocks == nil {
		w.info.blocks = make(map[ast.Node]string)
	}
	w.info.blocks[n] = desc
	if external && !w.info.Facts.Blocking.IsValid() {
		w.info.Facts.Blocking = n.Pos()
		w.info.Facts.BlockingDesc = desc
	}
}

// external reports whether an operand couples this function to another
// goroutine: anything but a variable declared inside this very body. A
// scratch channel or WaitGroup the function creates and drains itself
// is internal plumbing, not external blocking.
func (w *ipWalker) external(e ast.Expr) bool {
	obj := rootObject(w.pkg.Info, e)
	v, ok := obj.(*types.Var)
	if !ok {
		return true // call results, fields through calls, literals
	}
	if v.IsField() {
		return true
	}
	body := w.info.Body
	return !(v.Pos() >= body.Pos() && v.Pos() < body.End())
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

// isSync reports whether t (through one pointer) is one of the named
// types of package sync: isSync(t, "Mutex", "RWMutex") for a mutex.
func isSync(t types.Type, names ...string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	for _, name := range names {
		if obj.Name() == name {
			return true
		}
	}
	return false
}

// resolve propagates facts bottom-up to a fixed point. Phase A handles
// the monotone facts (blocking, acquires, syncs, loads);
// phase B decides Applies, which needs the final Syncs values (a call
// that both applies and syncs is durable, not an apply).
func (p *Program) resolve() {
	for changed := true; changed; {
		changed = false
		for _, fn := range p.Funcs {
			for _, e := range fn.Edges {
				if e.Kind != EdgeCall {
					continue
				}
				cf := &e.Callee.Facts
				if cf.Blocking.IsValid() && !fn.Facts.Blocking.IsValid() {
					fn.Facts.Blocking = e.Pos
					fn.Facts.BlockingDesc = e.Callee.Name + " → " + cf.BlockingDesc
					changed = true
				}
				if cf.Syncs && !fn.Facts.Syncs {
					fn.Facts.Syncs = true
					changed = true
				}
				for obj := range cf.Acquires {
					if _, ok := fn.Facts.Acquires[obj]; !ok {
						if fn.Facts.Acquires == nil {
							fn.Facts.Acquires = make(map[types.Object]token.Pos)
						}
						fn.Facts.Acquires[obj] = e.Pos
						changed = true
					}
				}
				for obj := range cf.LoadsPtr {
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

	for changed := true; changed; {
		changed = false
		for _, fn := range p.Funcs {
			if fn.Facts.Applies {
				continue
			}
			apply := false
			for _, s := range fn.applySites {
				if !siteDurable(s) {
					apply = true
					break
				}
			}
			if !apply {
				for _, e := range fn.Edges {
					if e.Kind == EdgeCall && e.Callee.Facts.Applies && !e.Callee.Facts.Syncs {
						apply = true
						break
					}
				}
			}
			if apply {
				fn.Facts.Applies = true
				changed = true
			}
		}
	}
}

// siteDurable reports whether every resolved callee of an InsertEdge
// site syncs internally (a durable apply). Unresolved sites are
// conservatively non-durable.
func siteDurable(s applySite) bool {
	if len(s.callees) == 0 {
		return false
	}
	for _, c := range s.callees {
		if !c.Facts.Syncs {
			return false
		}
	}
	return true
}

// SummaryString renders one function's summary in a stable, position-
// annotated form, used by the summary-stability golden test.
func (f *FuncInfo) SummaryString(fset *token.FileSet) string {
	var parts []string
	if f.Facts.Blocking.IsValid() {
		parts = append(parts, fmt.Sprintf("blocks[%s]", f.Facts.BlockingDesc))
	}
	if len(f.Facts.Acquires) > 0 {
		var names []string
		for obj := range f.Facts.Acquires {
			names = append(names, obj.Name())
		}
		sort.Strings(names)
		parts = append(parts, "acquires["+strings.Join(names, ",")+"]")
	}
	if f.Facts.Syncs {
		parts = append(parts, "syncs")
	}
	if f.Facts.Applies {
		parts = append(parts, "applies")
	}
	if len(f.Facts.LoadsPtr) > 0 {
		var names []string
		for obj := range f.Facts.LoadsPtr {
			names = append(names, obj.Name())
		}
		sort.Strings(names)
		parts = append(parts, "loads["+strings.Join(names, ",")+"]")
	}
	if len(parts) == 0 {
		parts = append(parts, "-")
	}
	return f.Name + ": " + strings.Join(parts, ",")
}
