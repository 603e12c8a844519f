package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicHygiene flags two classic shared-memory mistakes:
//
//  1. Mixed atomic/plain access: a struct field passed by address to a
//     sync/atomic function (atomic.AddInt64(&x.n, 1)) is an atomic
//     field; any plain read or write of the same field elsewhere tears.
//     (Method-style atomic.Int64 fields are immune by construction —
//     the toolchain's copylocks vet already polices those.)
//  2. Lock-region leaks: a field written while a sync.Mutex/RWMutex
//     field of the same struct is held is lock-guarded; plain writes,
//     and plain reads outside any lock region, race with the guarded
//     writers. Constructors and init functions are exempt (the value is
//     not shared yet). caladan.ULock regions are deliberately out of
//     scope: ULock orders uthreads inside one virtual node and implies
//     nothing about real-thread visibility.
//
// Lock regions are tracked per function, path-sensitively, with the
// same defer semantics as lockorder: a deferred unlock holds until
// function exit. AtomicHygiene is a module-wide analyzer (see lockorder.go).
var AtomicHygiene = &Analyzer{
	Name: "atomichygiene",
	Doc:  "forbid mixed atomic/plain field access and plain access to mutex-guarded fields outside the lock",
	Run:  runModule,
}

// fieldKey identifies one struct field module-wide.
type fieldKey struct {
	owner *types.TypeName
	field string
}

func (k fieldKey) String() string {
	return k.owner.Pkg().Path() + "." + k.owner.Name() + "." + k.field
}

// fieldAccess is one plain (non-atomic) access site.
type fieldAccess struct {
	pkg     *Package
	pos     token.Pos
	fn      string
	write   bool
	initCtx bool
	guarded bool // inside a lock region of the owning struct's mutex
}

func computeAtomicHygiene(mod *ModuleInfo, out *passOut) {
	atomicFields := map[fieldKey]bool{}         // fields accessed via sync/atomic funcs
	atomicSites := map[*ast.SelectorExpr]bool{} // the &x.f selectors inside those calls
	guardedWrite := map[fieldKey]bool{}         // fields written inside a lock region
	var accesses []struct {
		key fieldKey
		acc fieldAccess
	}

	// Pass 1 per function: find sync/atomic address-of args, and walk the
	// body with mutex-region tracking to classify every field access.
	for _, fn := range mod.Nodes {
		pkg := fn.Pkg
		ast.Inspect(fn.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok || !isAtomicFuncCall(pkg.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if key, ok := fieldKeyOf(pkg.Info, sel); ok {
					atomicFields[key] = true
					atomicSites[sel] = true
				}
			}
			return true
		})
	}
	for _, fn := range mod.Nodes {
		w := &regionWalker{pkg: fn.Pkg, fn: fn, initCtx: confInitContext(fn)}
		w.record = func(key fieldKey, acc fieldAccess) {
			if acc.guarded && acc.write && !acc.initCtx {
				guardedWrite[key] = true
			}
			accesses = append(accesses, struct {
				key fieldKey
				acc fieldAccess
			}{key, acc})
		}
		w.atomicSites = atomicSites
		walkFlow(w, fn.Decl.Body, mustSet[bool]{})
	}

	// Judgement. Atomic mixing: every plain access to an atomic field.
	// Lock leaks: once any guarded write exists for a field, unguarded
	// non-init writes and reads are findings.
	for _, a := range accesses {
		key, acc := a.key, a.acc
		if atomicFields[key] && !acc.initCtx {
			verb := "read"
			if acc.write {
				verb = "written"
			}
			out.report("atomichygiene", modDiag{
				Pkg: acc.pkg, Pos: acc.pos,
				Msg: fmt.Sprintf("%s: field %s is accessed with sync/atomic elsewhere; this plain access is %s non-atomically and can tear", acc.fn, key, verb),
			})
			continue
		}
		if !guardedWrite[key] || acc.guarded || acc.initCtx {
			continue
		}
		if acc.write {
			out.report("atomichygiene", modDiag{
				Pkg: acc.pkg, Pos: acc.pos,
				Msg: fmt.Sprintf("%s: field %s is written under its mutex elsewhere; this unguarded write races with the lock region", acc.fn, key),
			})
		} else {
			out.report("atomichygiene", modDiag{
				Pkg: acc.pkg, Pos: acc.pos,
				Msg: fmt.Sprintf("%s: field %s is written inside a lock region elsewhere; this plain read outside the lock can observe a torn or stale value", acc.fn, key),
			})
		}
	}
}

// isAtomicFuncCall reports a call to a function of package sync/atomic
// (atomic.AddInt64, atomic.StorePointer, ... — not the method forms).
func isAtomicFuncCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// fieldKeyOf resolves x.f to its owning named struct field, requiring a
// genuine struct field (not a package selector or method value).
func fieldKeyOf(info *types.Info, sel *ast.SelectorExpr) (fieldKey, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return fieldKey{}, false
	}
	named := namedStruct(info.Types[sel.X].Type)
	if named == nil {
		return fieldKey{}, false
	}
	return fieldKey{owner: named.Obj(), field: sel.Sel.Name}, true
}

// syncMutexRecv reports whether a lock call's receiver is a sync.Mutex /
// sync.RWMutex struct field, returning the base expression rendering
// ("s", for s.mu.Lock()) used to scope the region to that instance.
func syncMutexRecv(info *types.Info, call *ast.CallExpr) (base string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", false
	}
	recv := ast.Unparen(sel.X)
	rs, okRecv := recv.(*ast.SelectorExpr)
	if !okRecv {
		return "", false
	}
	tv, okType := info.Types[recv]
	if !okType || tv.Type == nil {
		return "", false
	}
	named, okNamed := tv.Type.(*types.Named)
	if !okNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", false
	}
	return exprString(rs.X), true
}

// regionWalker is atomichygiene's transfer for the flow walker: it tracks
// which struct instances have a sync mutex field held ("locked bases")
// and classifies every plain field access it passes. Deferred unlocks
// hold to function end, mirroring lockorder's semantics. Joins keep the
// bases locked on both paths (must-locked: an access is not guarded when
// one path skipped the Lock), and loop bodies are assumed lock-balanced
// per iteration.
type regionWalker struct {
	pkg         *Package
	fn          *FuncNode
	initCtx     bool
	atomicSites map[*ast.SelectorExpr]bool
	record      func(fieldKey, fieldAccess)
}

func (w *regionWalker) stmt(s ast.Stmt, locked mustSet[bool]) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if _, kind := lockCall(call); kind != "" {
				if base, isSync := syncMutexRecv(w.pkg.Info, call); isSync {
					if kind == "lock" {
						locked[base] = true
					} else {
						delete(locked, base)
					}
					return
				}
			}
		}
		w.scan(s.X, locked, nil)
	case *ast.DeferStmt:
		// Deferred unlock: the region extends to function end; nothing to
		// remove. Deferred lock (bizarre) or other calls: scan normally.
		if _, kind := lockCall(s.Call); kind == "unlock" {
			if _, isSync := syncMutexRecv(w.pkg.Info, s.Call); isSync {
				return
			}
		}
		w.scan(s.Call, locked, nil)
	case *ast.GoStmt:
		// The goroutine body runs without this frame's lock regions.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			walkFlow(w, lit.Body, mustSet[bool]{})
		}
		for _, arg := range s.Call.Args {
			w.scan(arg, locked, nil)
		}
	case *ast.AssignStmt:
		writes := map[ast.Node]bool{}
		for _, lhs := range s.Lhs {
			writes[ast.Unparen(lhs)] = true
			w.scan(lhs, locked, writes)
		}
		for _, rhs := range s.Rhs {
			w.scan(rhs, locked, nil)
		}
	case *ast.IncDecStmt:
		writes := map[ast.Node]bool{ast.Unparen(s.X): true}
		w.scan(s.X, locked, writes)
	default:
		w.scan(s, locked, nil)
	}
}

func (w *regionWalker) expr(e ast.Expr, locked mustSet[bool]) { w.scan(e, locked, nil) }

func (w *regionWalker) refine(ast.Expr, mustSet[bool], mustSet[bool]) {}

func (w *regionWalker) ends(call *ast.CallExpr) bool { return isPanicCall(call) }

func (w *regionWalker) loop(_ ast.Stmt, entry mustSet[bool], body func(mustSet[bool]) (mustSet[bool], bool)) mustSet[bool] {
	return loopKeep(entry, body)
}

// scan classifies the field accesses under n. writes marks the selector
// nodes that are assignment targets. Function literals are walked where
// they appear: they execute on this frame unless spawned (GoStmt handles
// that case above).
func (w *regionWalker) scan(n ast.Node, locked mustSet[bool], writes map[ast.Node]bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if w.atomicSites[sel] {
			return false // the sanctioned atomic access itself
		}
		key, ok := fieldKeyOf(w.pkg.Info, sel)
		if !ok {
			return true
		}
		w.record(key, fieldAccess{
			pkg:     w.pkg,
			pos:     sel.Pos(),
			fn:      w.fn.Decl.Name.Name,
			write:   writes[sel],
			initCtx: w.initCtx,
			guarded: locked[exprString(sel.X)],
		})
		return true
	})
}
