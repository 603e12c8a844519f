package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Confinement assigns every named struct type reachable from the sim,
// core, and service package roots a confinement class — the contract any
// split of one engine's state across host threads must keep (today the
// serving fleet, fleetCell, runs every node on one shared engine):
//
//	immutable-after-init — no field write outside the type's own
//	                       constructors/init; free to share
//	router-message       — the type travels through a channel; sharing
//	                       is by handoff, never concurrent
//	shared-guarded       — the type escapes its node (goroutine capture
//	                       or package-level var) but carries a guard
//	                       field (sync.*, sync/atomic, or a channel)
//	node-confined        — mutable, and no escape evidence anywhere in
//	                       the module
//
// A mutable type that escapes with no guard field is *shared-unguarded*:
// a finding at every escape site, because that is exactly the shared
// state that would make per-node event loops racy.
//
// The analysis is deliberately shallow: escape evidence is direct (the
// captured/sent/stored value's own type), not propagated through fields
// of captured values — the callgraph_test fixtures pin the matching
// dynamic-dispatch holes. ULock is NOT a guard here: it orders virtual
// concurrency inside one node and protects nothing across real threads.
//
// Confinement is a module-wide analyzer (see lockorder.go).
var Confinement = &Analyzer{
	Name: "confinement",
	Doc:  "certify mutable types reachable from sim/core/service as node-confined, router-message, immutable-after-init, or shared-guarded",
	Run:  runModule,
}

// Confinement class names (also the partition-report vocabulary).
const (
	ClassNodeConfined    = "node-confined"
	ClassRouterMessage   = "router-message"
	ClassImmutable       = "immutable-after-init"
	ClassSharedGuarded   = "shared-guarded"
	ClassSharedUnguarded = "shared-unguarded"
)

// confEvidence is one observation about a type, position-anchored.
type confEvidence struct {
	Kind string // "mutation", "goroutine-capture", "package-var", "channel-element", "guard-field"
	Pkg  *Package
	Pos  token.Pos
	Note string
}

// typeConf is the classification of one reachable named struct type.
type typeConf struct {
	Named    *types.Named
	Name     string // pkgpath.TypeName
	Class    string
	Evidence []confEvidence
}

// confinementInfo is the module-wide confinement view.
type confinementInfo struct {
	roots []string
	types []*typeConf // sorted by Name
}

// confRootPkg reports whether an import path is one of the partition
// roots: the simulation kernel, the EasyIO core, and the serving layer.
func confRootPkg(path string) bool {
	base := path[strings.LastIndex(path, "/")+1:]
	return base == "sim" || base == "core" || base == "service"
}

func computeConfinement(mod *ModuleInfo, out *passOut) {
	ci := &confinementInfo{}
	mod.conf = ci

	moduleNamed := func(t types.Type) *types.Named {
		if named, ok := t.(*types.Named); ok && namedStruct(named) != nil && mod.pkgPaths[named.Obj().Pkg().Path()] {
			return named
		}
		return nil
	}

	// Reachability: seed with every named struct type declared in a root
	// package, then expand through field/element types. Channel element
	// types are remembered: they are router messages by construction.
	reachable := map[*types.Named]bool{}
	chanElem := map[*types.Named]bool{}
	var reached []*types.Named // insertion order: deterministic iteration
	var work []*types.Named
	add := func(n *types.Named) {
		if n != nil && !reachable[n] {
			reachable[n] = true
			reached = append(reached, n)
			work = append(work, n)
		}
	}
	var expand func(t types.Type, underChan bool, seen map[types.Type]bool)
	expand = func(t types.Type, underChan bool, seen map[types.Type]bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Pointer:
			expand(t.Elem(), underChan, seen)
		case *types.Slice:
			expand(t.Elem(), underChan, seen)
		case *types.Array:
			expand(t.Elem(), underChan, seen)
		case *types.Map:
			expand(t.Key(), underChan, seen)
			expand(t.Elem(), underChan, seen)
		case *types.Chan:
			expand(t.Elem(), true, seen)
		case *types.Named:
			if n := moduleNamed(t); n != nil {
				if underChan {
					chanElem[n] = true
				}
				add(n)
				return // fields expanded when popped from the worklist
			}
			expand(t.Underlying(), underChan, seen)
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				expand(t.Field(i).Type(), underChan, seen)
			}
		}
		// Signatures and interfaces end the walk: a func value or an
		// interface is not a struct we can certify.
	}
	for _, pkg := range mod.pkgs {
		if !confRootPkg(pkg.Path) || pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						if n, ok := obj.Type().(*types.Named); ok {
							add(moduleNamed(n))
						}
					}
				}
			}
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if st, ok := n.Obj().Type().Underlying().(*types.Struct); ok {
			expand(st, false, map[types.Type]bool{})
		}
	}

	// Evidence scans over every function in the module.
	mut := map[*types.Named]confEvidence{}       // first non-init field write
	escapes := map[*types.Named][]confEvidence{} // goroutine captures, package vars
	recordMut := func(n *types.Named, ev confEvidence) {
		if _, ok := mut[n]; !ok {
			mut[n] = ev
		}
	}
	for _, fn := range mod.Nodes {
		initCtx := confInitContext(fn)
		pkg := fn.Pkg
		ast.Inspect(fn.Decl.Body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if n, field := selectorBase(pkg.Info, lhs); n != nil && !initCtx {
						recordMut(n, confEvidence{Kind: "mutation", Pkg: pkg, Pos: lhs.Pos(),
							Note: fmt.Sprintf("field %s written in %s", field, fn.Decl.Name.Name)})
					}
				}
			case *ast.IncDecStmt:
				if n, field := selectorBase(pkg.Info, x.X); n != nil && !initCtx {
					recordMut(n, confEvidence{Kind: "mutation", Pkg: pkg, Pos: x.Pos(),
						Note: fmt.Sprintf("field %s written in %s", field, fn.Decl.Name.Name)})
				}
			case *ast.GoStmt:
				for _, ev := range goEscapes(pkg, fn, x, moduleNamed) {
					escapes[ev.named] = append(escapes[ev.named], ev.ev)
				}
			case *ast.ChanType:
				if tv, ok := pkg.Info.Types[x]; ok {
					if ch, ok := tv.Type.Underlying().(*types.Chan); ok {
						seen := map[types.Type]bool{}
						markChanElems(ch.Elem(), moduleNamed, chanElem, seen)
					}
				}
			}
			return true
		})
	}
	// Package-level vars publish their referents to every goroutine; a
	// func-typed hook or a blank interface-assertion var carries no
	// certifiable struct and is skipped by the type walk itself.
	for _, pkg := range mod.pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if name.Name == "_" {
							continue
						}
						obj, ok := pkg.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						for _, n := range namedStructsUnder(obj.Type(), moduleNamed) {
							escapes[n] = append(escapes[n], confEvidence{
								Kind: "package-var", Pkg: pkg, Pos: name.Pos(),
								Note: "package-level var " + name.Name,
							})
						}
					}
				}
			}
		}
	}

	// Classification, in deterministic order.
	var names []string
	byName := map[string]*types.Named{}
	for _, n := range reached {
		nm := n.Obj().Pkg().Path() + "." + n.Obj().Name()
		names = append(names, nm)
		byName[nm] = n
	}
	sort.Strings(names)
	roots := map[string]bool{}
	for _, pkg := range mod.pkgs {
		if confRootPkg(pkg.Path) {
			roots[pkg.Path] = true
		}
	}
	ci.roots = sortedKeys(roots)
	for _, nm := range names {
		n := byName[nm]
		tc := &typeConf{Named: n, Name: nm}
		mutEv, mutable := mut[n]
		guardField := guardFieldOf(n)
		switch {
		case !mutable:
			tc.Class = ClassImmutable
		case chanElem[n]:
			tc.Class = ClassRouterMessage
			tc.Evidence = append(tc.Evidence, mutEv)
		case len(escapes[n]) > 0:
			tc.Evidence = append(tc.Evidence, mutEv)
			tc.Evidence = append(tc.Evidence, escapes[n]...)
			if guardField != "" {
				tc.Class = ClassSharedGuarded
				tc.Evidence = append(tc.Evidence, confEvidence{Kind: "guard-field", Note: guardField})
			} else {
				tc.Class = ClassSharedUnguarded
				for _, ev := range escapes[n] {
					out.report("confinement", modDiag{
						Pkg: ev.Pkg,
						Pos: ev.Pos,
						Msg: fmt.Sprintf("mutable type %s escapes its node (%s: %s) with no guard field; confine it, make it a router message, or guard it with sync/atomic/chan state", nm, ev.Kind, ev.Note),
					})
				}
			}
		default:
			tc.Class = ClassNodeConfined
			tc.Evidence = append(tc.Evidence, mutEv)
		}
		ci.types = append(ci.types, tc)
	}
}

// confInitContext reports whether writes inside fn are initialization: Go
// init functions and constructors (any function whose results include a
// module named struct, the idiomatic NewX/Mkfs/Mount shape).
func confInitContext(fn *FuncNode) bool {
	if fn.Decl.Recv == nil && fn.Decl.Name.Name == "init" {
		return true
	}
	sig, ok := fn.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if namedStruct(sig.Results().At(i).Type()) != nil {
			return true
		}
	}
	return false
}

// selectorBase resolves an assignment target x.f to the named module
// struct that owns field f, or nil.
func selectorBase(info *types.Info, e ast.Expr) (*types.Named, string) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	named := namedStruct(info.Types[sel.X].Type)
	if named == nil {
		return nil, ""
	}
	return named, sel.Sel.Name
}

type namedEscape struct {
	named *types.Named
	ev    confEvidence
}

// goEscapes collects the module struct types a go statement publishes to
// the new goroutine: the call receiver, the call arguments, and — for a
// function-literal body — every captured variable.
func goEscapes(pkg *Package, fn *FuncNode, g *ast.GoStmt, moduleNamed func(types.Type) *types.Named) []namedEscape {
	var out []namedEscape
	record := func(t types.Type, pos token.Pos, note string) {
		for _, n := range namedStructsUnder(t, moduleNamed) {
			out = append(out, namedEscape{named: n, ev: confEvidence{
				Kind: "goroutine-capture", Pkg: pkg, Pos: pos, Note: note + " in " + fn.Decl.Name.Name,
			}})
		}
	}
	call := g.Call
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := pkg.Info.Types[sel.X]; ok && tv.Type != nil {
			record(tv.Type, g.Pos(), "go "+exprString(call.Fun)+"() receiver")
		}
	}
	for _, arg := range call.Args {
		if tv, ok := pkg.Info.Types[arg]; ok && tv.Type != nil {
			record(tv.Type, arg.Pos(), "go argument "+exprString(arg))
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		seen := map[*types.Var]bool{}
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pkg.Info.Uses[id].(*types.Var)
			if !ok || v.IsField() || seen[v] {
				return true
			}
			// Captured: declared outside the literal's span.
			if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
				return true
			}
			seen[v] = true
			record(v.Type(), id.Pos(), "closure captures "+v.Name())
			return true
		})
	}
	return out
}

// namedStructsUnder walks a type shallowly (pointers, slices, arrays,
// maps, channels — not struct fields) and returns the module named
// structs it directly denotes.
func namedStructsUnder(t types.Type, moduleNamed func(types.Type) *types.Named) []*types.Named {
	var out []*types.Named
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if n := moduleNamed(t); n != nil {
			out = append(out, n)
			return
		}
		switch t := t.(type) {
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		}
	}
	walk(t)
	return out
}

// markChanElems marks every module named struct under a channel element
// type as a router message.
func markChanElems(t types.Type, moduleNamed func(types.Type) *types.Named, chanElem map[*types.Named]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	if n := moduleNamed(t); n != nil {
		chanElem[n] = true
		return
	}
	switch t := t.(type) {
	case *types.Pointer:
		markChanElems(t.Elem(), moduleNamed, chanElem, seen)
	case *types.Slice:
		markChanElems(t.Elem(), moduleNamed, chanElem, seen)
	}
}

// guardFieldOf returns the name of a guard field of n's struct — real
// host-side synchronization (sync.Mutex/RWMutex/Cond/WaitGroup/Once/Map,
// anything from sync/atomic, or a channel). caladan.ULock is not a
// guard: it orders uthreads inside one virtual node and provides no
// cross-thread exclusion.
func guardFieldOf(n *types.Named) string {
	st, ok := n.Obj().Type().Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		t := f.Type()
		if _, ok := t.Underlying().(*types.Chan); ok {
			return f.Name() + " (chan)"
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		switch named.Obj().Pkg().Path() {
		case "sync":
			switch named.Obj().Name() {
			case "Mutex", "RWMutex", "Cond", "WaitGroup", "Once", "Map":
				return f.Name() + " (sync." + named.Obj().Name() + ")"
			}
		case "sync/atomic":
			return f.Name() + " (atomic." + named.Obj().Name() + ")"
		}
	}
	return ""
}
