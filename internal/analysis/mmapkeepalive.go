package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// MmapKeepAlive enforces the label.Index memory model: the off tail
// offsets, the headHubs column ids, the midHubs/midBits/midOff bitmap
// tier and the hubs/head/midDists/dists arrays of tail hub ids and
// distances of a finalizer-managed index may alias a file mapping, so
// holding one of
// the slices does NOT keep the mapping alive — only a reference to the
// owning index does. Every function that dereferences the arrays
// (directly, through a local alias, or through the slices returned by
// the Label method or the tail, row and mid ramp functions) must
// therefore pin the owner with runtime.KeepAlive after its last
// dereference — a deferred KeepAlive always counts — or a precise GC may
// collect the index mid-read, run the mapping finalizer, and unmap the
// pages under the running query (use-after-munmap).
//
// The owner type is recognized structurally: a struct with the five
// shared array fields plus an mm mapping field (label.Index; a lookalike
// without mm is exempt — it is always heap-backed). The tail hub ids and
// the distances live at the index's widths in a struct of four arrays
// the owner reaches (label.arrays[H, D]), recognized the same way. A
// pointer to one points into the owner's mapping: a parameter or method
// receiver of that type is an alias of the function's owner parameter,
// and where there is none it is itself what a pin must name. Functions that
// allocate the owner themselves (composite literal) are exempt: a
// just-built owner cannot have a registered finalizer while the
// allocating function still runs. So are functions that store into an
// owner's arrays: a mapping is read-only, so that owner is on the heap.
var MmapKeepAlive = &Analyzer{
	Name: "mmapkeepalive",
	Doc:  "reads of finalizer-managed mmap arrays must be pinned with runtime.KeepAlive",
	Run:  runMmapKeepAlive,
}

// mmapOwnerFields is the structural signature of the owner type: the
// arrays that may alias the mapping, but for the tail hubs and the
// distances.
var mmapOwnerFields = map[string]bool{
	"off": true, "headHubs": true,
	"midHubs": true, "midBits": true, "midOff": true,
}

// mmapDistFields is the structural signature of the struct of the tail
// hub ids and the distances, at the widths of the owner.
var mmapDistFields = map[string]bool{"hubs": true, "head": true, "midDists": true, "dists": true}

// mmapAliasFuncs are the calls whose results alias the mapping: the
// owner's exported Label method (the stored run itself when the index
// has no columns and 4-byte distances) and the query ramp, functions of
// the owner and its distance arrays — tail, which cuts a vertex's run
// for the merge kernel, row, which cuts its head row for the dense scan,
// and mid, which cuts its bitmap row and packed distances for the rank
// scan.
var mmapAliasFuncs = map[string]bool{"Label": true, "tail": true, "row": true, "mid": true}

// hasSliceFields reports whether t (through one pointer) is a struct
// with a slice field of every name in want.
func hasSliceFields(t types.Type, want map[string]bool) (s *types.Struct, ok bool) {
	s = namedOrPtrStruct(t)
	if s == nil {
		return nil, false
	}
	found := 0
	for i := 0; i < s.NumFields(); i++ {
		if _, ok := s.Field(i).Type().Underlying().(*types.Slice); ok && want[s.Field(i).Name()] {
			found++
		}
	}
	return s, found == len(want)
}

// isMmapOwner reports whether t (through one pointer) is a struct with
// the five shared arrays and the mm mapping field.
func isMmapOwner(t types.Type) bool {
	s, ok := hasSliceFields(t, mmapOwnerFields)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if s.Field(i).Name() == "mm" {
			return true
		}
	}
	return false
}

// isDistArrays reports whether t (through one pointer) is the struct of
// the tail hub and distance arrays.
func isDistArrays(t types.Type) bool {
	_, ok := hasSliceFields(t, mmapDistFields)
	return ok
}

// ownerFieldSel reports whether e selects one of the aliased array
// fields — of the owner, or of a struct of distance arrays — returning
// the root object it is reached through: the owner in x.off and
// x.a8.dists, the pointer in a.dists.
func ownerFieldSel(info *types.Info, e ast.Expr) (types.Object, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	sn, ok := info.Selections[sel]
	if !ok || sn.Kind() != types.FieldVal {
		return nil, false
	}
	name := sel.Sel.Name
	if !(mmapOwnerFields[name] && isMmapOwner(sn.Recv())) && !(mmapDistFields[name] && isDistArrays(sn.Recv())) {
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
	written := make(map[types.Object]bool) // owners whose arrays this function stores into

	// A receiver or parameter that points at the hub and distance arrays
	// points into the owner parameter beside it.
	var owner types.Object
	var arrays []types.Object
	owners := 0
	fields := fd.Type.Params.List
	if fd.Recv != nil {
		fields = append(fields[:len(fields):len(fields)], fd.Recv.List...)
	}
	for _, field := range fields {
		for _, name := range field.Names {
			switch obj := info.ObjectOf(name); {
			case isMmapOwner(obj.Type()):
				owner = obj
				owners++
			case isDistArrays(obj.Type()):
				arrays = append(arrays, obj)
			}
		}
	}
	if owners == 1 {
		for _, a := range arrays {
			taint[a] = owner
		}
	}

	// fieldRoot is ownerFieldSel with an alias resolved to its owner.
	fieldRoot := func(e ast.Expr) (types.Object, bool) {
		root, ok := ownerFieldSel(info, e)
		if owner, aliased := taint[root]; ok && aliased {
			root = owner
		}
		return root, ok
	}

	// aliasSource classifies an expression that creates a mapping alias
	// — an array, a slice of one, the address of the owner's distance
	// arrays — returning the owner root it derives from.
	aliasSource := func(e ast.Expr) (types.Object, bool) {
		e = ast.Unparen(e)
		if sl, ok := e.(*ast.SliceExpr); ok {
			e = ast.Unparen(sl.X)
		}
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND && isDistArrays(info.TypeOf(u.X)) {
			return rootObject(info, u.X), true
		}
		if root, ok := fieldRoot(e); ok {
			return root, true
		}
		if id, ok := e.(*ast.Ident); ok {
			if root, ok := taint[info.ObjectOf(id)]; ok {
				return root, true
			}
		}
		return nil, false
	}

	// aliasCall matches calls returning aliases — the owner's Label
	// method (x.Label / inv.idx.Label) and the ramp functions, whose
	// first argument is the owner (tail(x, a, v)) — yielding the
	// pinnable root.
	aliasCall := func(call *ast.CallExpr) (types.Object, bool) {
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			sn, ok := info.Selections[fun]
			if ok && mmapAliasFuncs[fun.Sel.Name] && sn.Kind() == types.MethodVal && isMmapOwner(sn.Recv()) {
				return rootObject(info, fun.X), true
			}
		case *ast.Ident:
			if mmapAliasFuncs[fun.Name] && len(call.Args) > 0 && isMmapOwner(info.TypeOf(call.Args[0])) {
				return rootObject(info, call.Args[0]), true
			}
		}
		return nil, false
	}

	recordAssign := func(lhs []ast.Expr, rhs []ast.Expr) {
		// One call with multiple results: x.Label(v) taints every LHS.
		if len(rhs) == 1 && len(lhs) > 1 {
			if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
				if root, ok := aliasCall(call); ok && root != nil {
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
				if root, ok := aliasCall(call); ok && root != nil {
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
		if root, ok := fieldRoot(e); ok {
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
			if root, ok := aliasCall(call); ok {
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
			for _, l := range x.Lhs {
				if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
					if root, _, ok := derefRoot(ix.X); ok {
						written[root] = true
					}
				}
			}
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
			over := ast.Unparen(x.X) // a range over a slice of an array reads it too
			if sl, ok := over.(*ast.SliceExpr); ok {
				over = sl.X
			}
			if root, desc, ok := derefRoot(over); ok {
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
			// callee (slices.Equal, copy, append, ...): a dereference. A
			// pointer to the distance arrays hands over no element; the
			// callee that reads through it pins for itself.
			for _, arg := range x.Args {
				if root, desc, ok := derefRoot(arg); ok && !isDistArrays(info.TypeOf(arg)) {
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
		if deferred[root] || written[root] {
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
