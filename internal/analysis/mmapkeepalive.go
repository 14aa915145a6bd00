package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// MmapKeepAlive enforces the label.Index memory model from PR 3: the
// off/hubs/dists tail arrays, the headHubs/head matrix and the
// midHubs/midBits/midOff/midDists bitmap tier of a finalizer-managed
// index may alias a file mapping, so holding one of the slices does NOT
// keep the mapping alive — only a reference to the owning index does.
// Every function that dereferences the arrays (directly, through a local
// alias, or through the slices returned by the Label, tail, row or mid
// methods) must therefore pin the owner
// with runtime.KeepAlive after its last dereference — a deferred
// KeepAlive always counts — or a precise GC may collect the index
// mid-read, run the mapping finalizer, and unmap the pages under the
// running query (use-after-munmap).
//
// The owner type is recognized structurally: a struct with the nine
// array fields plus an mm mapping field (label.Index; pathidx.Index
// lacks mm and is exempt — it is always heap-backed). Functions that
// allocate the owner themselves (composite literal) are exempt: a
// just-built owner cannot have a registered finalizer while the
// allocating function still runs.
var MmapKeepAlive = &Analyzer{
	Name: "mmapkeepalive",
	Doc:  "reads of finalizer-managed mmap arrays must be pinned with runtime.KeepAlive",
	Run:  runMmapKeepAlive,
}

// mmapOwnerFields is the structural signature of the owner type: the
// arrays that may alias the mapping.
var mmapOwnerFields = map[string]bool{
	"off": true, "hubs": true, "dists": true, "headHubs": true, "head": true,
	"midHubs": true, "midBits": true, "midOff": true, "midDists": true,
}

// mmapAliasMethods are owner methods whose results alias the mapping:
// the exported Label (the stored run itself when the index has no
// columns) and the query ramp — tail, which cuts a vertex's run for the
// merge kernel, row, which cuts its head row for the dense scan, and
// mid, which cuts its bitmap row and packed distances for the rank scan.
var mmapAliasMethods = map[string]bool{"Label": true, "tail": true, "row": true, "mid": true}

// isMmapOwner reports whether t (through one pointer) is a struct with
// the nine arrays and the mm mapping field.
func isMmapOwner(t types.Type) bool {
	s := namedOrPtrStruct(t)
	if s == nil {
		return false
	}
	found := 0
	hasMM := false
	for i := 0; i < s.NumFields(); i++ {
		name := s.Field(i).Name()
		if mmapOwnerFields[name] {
			if _, ok := s.Field(i).Type().Underlying().(*types.Slice); ok {
				found++
			}
		}
		if name == "mm" {
			hasMM = true
		}
	}
	return found == len(mmapOwnerFields) && hasMM
}

// ownerFieldSel reports whether e selects one of the owner's aliased
// array fields, returning the root object owning the mapping.
func ownerFieldSel(info *types.Info, e ast.Expr) (types.Object, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	sn, ok := info.Selections[sel]
	if !ok || sn.Kind() != types.FieldVal {
		return nil, false
	}
	if !mmapOwnerFields[sel.Sel.Name] || !isMmapOwner(sn.Recv()) {
		return nil, false
	}
	return rootObject(info, sel.X), true
}

// mmapEvent is one dereference of a mapping-aliased array.
type mmapEvent struct {
	pos  token.Pos
	desc string
}

func runMmapKeepAlive(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMmapFunc(pass, fd)
		}
	}
	return nil
}

func checkMmapFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	taint := make(map[types.Object]types.Object) // alias var -> owner root
	localAlloc := make(map[types.Object]bool)    // owners allocated in this function
	events := make(map[types.Object][]mmapEvent)
	pins := make(map[types.Object][]token.Pos)
	deferred := make(map[types.Object]bool)

	// aliasSource classifies an expression that creates a mapping alias,
	// returning the owner root it derives from.
	aliasSource := func(e ast.Expr) (types.Object, bool) {
		e = ast.Unparen(e)
		if sl, ok := e.(*ast.SliceExpr); ok {
			e = ast.Unparen(sl.X)
		}
		if root, ok := ownerFieldSel(info, e); ok {
			return root, true
		}
		if id, ok := e.(*ast.Ident); ok {
			if root, ok := taint[info.ObjectOf(id)]; ok {
				return root, true
			}
		}
		return nil, false
	}

	// aliasMethodCall matches calls to owner methods returning aliases
	// (x.Label / inv.idx.Label), yielding the pinnable root.
	aliasMethodCall := func(call *ast.CallExpr) (types.Object, bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !mmapAliasMethods[sel.Sel.Name] {
			return nil, false
		}
		sn, ok := info.Selections[sel]
		if !ok || sn.Kind() != types.MethodVal || !isMmapOwner(sn.Recv()) {
			return nil, false
		}
		return rootObject(info, sel.X), true
	}

	recordAssign := func(lhs []ast.Expr, rhs []ast.Expr) {
		// One call with multiple results: x.Label(v) taints every LHS.
		if len(rhs) == 1 && len(lhs) > 1 {
			if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
				if root, ok := aliasMethodCall(call); ok && root != nil {
					for _, l := range lhs {
						if obj := rootObject(info, l); obj != nil {
							taint[obj] = root
						}
					}
				}
			}
			return
		}
		for i, l := range lhs {
			if i >= len(rhs) {
				break
			}
			obj := rootObject(info, l)
			if obj == nil {
				continue
			}
			r := ast.Unparen(rhs[i])
			// Owner allocation: x := &Index{...} or x := Index{...}.
			alloc := r
			if u, ok := alloc.(*ast.UnaryExpr); ok && u.Op == token.AND {
				alloc = ast.Unparen(u.X)
			}
			if cl, ok := alloc.(*ast.CompositeLit); ok {
				if tv, ok := info.Types[cl]; ok && isMmapOwner(tv.Type) {
					localAlloc[obj] = true
					continue
				}
			}
			if call, ok := r.(*ast.CallExpr); ok {
				if root, ok := aliasMethodCall(call); ok && root != nil {
					taint[obj] = root
					continue
				}
			}
			if root, ok := aliasSource(r); ok && root != nil {
				taint[obj] = root
			}
		}
	}

	derefRoot := func(e ast.Expr) (types.Object, string, bool) {
		e = ast.Unparen(e)
		if root, ok := ownerFieldSel(info, e); ok {
			return root, types.ExprString(e), true
		}
		if id, ok := e.(*ast.Ident); ok {
			if root, ok := taint[info.ObjectOf(id)]; ok {
				return root, id.Name, true
			}
		}
		// An alias read where it is made, never named: range x.row(v),
		// rowMin(x.row(s), x.row(t)).
		if call, ok := e.(*ast.CallExpr); ok {
			if root, ok := aliasMethodCall(call); ok {
				return root, types.ExprString(e), true
			}
		}
		return nil, "", false
	}

	addEvent := func(root types.Object, pos token.Pos, desc string) {
		if root == nil || localAlloc[root] {
			return
		}
		events[root] = append(events[root], mmapEvent{pos: pos, desc: desc})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			recordAssign(x.Lhs, x.Rhs)
		case *ast.ValueSpec:
			var lhs []ast.Expr
			for _, name := range x.Names {
				lhs = append(lhs, name)
			}
			recordAssign(lhs, x.Values)
		case *ast.IndexExpr:
			if root, desc, ok := derefRoot(x.X); ok {
				addEvent(root, x.Pos(), desc)
			}
		case *ast.RangeStmt:
			if root, desc, ok := derefRoot(x.X); ok {
				addEvent(root, x.X.Pos(), desc)
			}
		case *ast.DeferStmt:
			if isKeepAlive(info, x.Call) && len(x.Call.Args) == 1 {
				if obj := rootObject(info, x.Call.Args[0]); obj != nil {
					deferred[obj] = true
				}
			}
		case *ast.CallExpr:
			if isKeepAlive(info, x) && len(x.Args) == 1 {
				if obj := rootObject(info, x.Args[0]); obj != nil {
					pins[obj] = append(pins[obj], x.Pos())
				}
				return false
			}
			if isBuiltinCall(info, x, "len") || isBuiltinCall(info, x, "cap") {
				return false // reading a slice header does not touch the mapping
			}
			// Passing an aliased slice to a call hands its elements to the
			// callee (slices.Equal, copy, append, ...): a dereference.
			for _, arg := range x.Args {
				if root, desc, ok := derefRoot(arg); ok {
					addEvent(root, arg.Pos(), desc)
				}
			}
		}
		return true
	})

	exits := funcExits(fd.Body)
	var roots []types.Object
	for root := range events {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Pos() < roots[j].Pos() })
	for _, root := range roots {
		if deferred[root] {
			continue
		}
		evs := events[root]
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		rootPins := pins[root]
		sort.Slice(rootPins, func(i, j int) bool { return rootPins[i] < rootPins[j] })
		for _, exit := range exits {
			// Last dereference dominating this exit, lexically.
			var last *mmapEvent
			for i := range evs {
				if evs[i].pos < exit {
					last = &evs[i]
				}
			}
			if last == nil {
				continue
			}
			pinned := false
			for _, p := range rootPins {
				if p > last.pos && p <= exit {
					pinned = true
					break
				}
			}
			if !pinned {
				if len(rootPins) > 0 {
					pass.Reportf(last.pos,
						"%s dereferences mmap-aliased %s but runtime.KeepAlive(%s) does not cover the exit at %s (pin must follow the last dereference; defer always works)",
						fd.Name.Name, last.desc, root.Name(), pass.Fset.Position(exit))
				} else {
					pass.Reportf(last.pos,
						"%s dereferences mmap-aliased %s without runtime.KeepAlive(%s): a precise GC may unmap the backing mapping mid-read",
						fd.Name.Name, last.desc, root.Name())
				}
				break
			}
		}
	}
}
