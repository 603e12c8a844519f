package analysis

import (
	"go/ast"
	"go/types"
)

// This file builds the module-wide call graph the summary layer
// (summary.go) propagates effect summaries over. Nodes are the function
// and method declarations of every loaded package; edges are statically
// resolved calls (direct calls and concrete method values). Interface
// dispatch and function values have no static callee and produce no
// edge — analyzers built on summaries are conservative across dynamic
// dispatch by construction. Value references to module functions
// (method values installed as hooks, functions passed as arguments) are
// recorded separately as Refs: no effects transfer at a reference site,
// but liveness does.

// FuncNode is one declared function in the module call graph.
type FuncNode struct {
	// Obj is the type-checker object; summaries are keyed by it.
	Obj *types.Func
	// Decl is the syntax, always with a non-nil body.
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
	// Callees are the statically resolved module-internal callees,
	// deduplicated, in source order of first call.
	Callees []*FuncNode
	// Callers is the reverse edge set, in deterministic node order.
	Callers []*FuncNode
	// Refs are module-internal functions referenced as values rather
	// than called (method values handed to hooks, function arguments):
	// the address-taken set. Summary propagation ignores them (a value
	// reference transfers no effects at the reference site), but
	// program-liveness consumers (hotpathcover) follow them — a hook
	// installed from reachable code is reachable.
	Refs []*FuncNode
}

// ModuleInfo is the interprocedural view of one load: call graph, SCC
// decomposition, and per-function effect summaries. It is built once per
// RunAnalyzers invocation and shared by every Pass via Pass.Mod.
type ModuleInfo struct {
	// Funcs indexes nodes by their type-checker object.
	Funcs map[*types.Func]*FuncNode
	// Nodes lists every node in deterministic (package, file, decl)
	// order.
	Nodes []*FuncNode
	// SCCs are the strongly connected components in bottom-up order:
	// every callee SCC precedes its caller SCCs, so summary propagation
	// is a single forward sweep with a fixpoint only inside each SCC.
	SCCs [][]*FuncNode
	// Summaries holds the computed effect summary per function.
	Summaries map[*types.Func]*Summary

	// locks/conf/atomicH are the concurrency-soundness views that
	// lockorder, confinement and atomichygiene replay and BuildPartition
	// renders.
	locks   *moduleLocks
	conf    *confinementInfo
	atomicH *atomicInfo
	// hot is the module-wide hot-path allocation-contract view the
	// perf-contract analyzers (noalloc, boxing, hotpathcover) replay and
	// BuildPartition renders (noalloc.go).
	hot *moduleHot
	// typestate holds the per-protocol results of the declarative
	// typestate engine (typestate.go), one entry per registered
	// protocol, in Protocols() order.
	typestate []*protoResult
	// ms is the wall time of each global pass above, in milliseconds,
	// keyed by the analyzer that replays it; RunAnalyzersOpts adds it
	// into RunResult.AnalyzerMS.
	ms map[string]float64

	pkgs      []*Package
	pkgPaths  map[string]bool
	fsMethods map[string]bool
	ifaceMths map[string]bool
	gatedCtx  map[*FuncNode]bool
}

// NodesOf returns the nodes declared in pkg, in declaration order.
func (m *ModuleInfo) NodesOf(pkg *Package) []*FuncNode {
	var out []*FuncNode
	for _, n := range m.Nodes {
		if n.Pkg == pkg {
			out = append(out, n)
		}
	}
	return out
}

// SummaryFor returns the effect summary for fn, or nil for functions
// outside the module (or without a body).
func (m *ModuleInfo) SummaryFor(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	return m.Summaries[fn]
}

// BuildModule constructs the call graph and effect summaries for one set
// of loaded packages.
func BuildModule(pkgs []*Package) *ModuleInfo {
	mod := &ModuleInfo{
		Funcs:     map[*types.Func]*FuncNode{},
		Summaries: map[*types.Func]*Summary{},
		ms:        map[string]float64{},
		pkgs:      pkgs,
		pkgPaths:  map[string]bool{},
	}
	for _, pkg := range pkgs {
		mod.pkgPaths[pkg.Path] = true
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				mod.Funcs[obj] = node
				mod.Nodes = append(mod.Nodes, node)
			}
		}
	}
	for _, n := range mod.Nodes {
		seen := map[*FuncNode]bool{}
		seenRef := map[*FuncNode]bool{}
		// callIdent marks the identifiers that name a call's callee, so
		// the reference pass below only sees value references. Inspect is
		// pre-order: a CallExpr is visited before its Fun's identifiers.
		callIdent := map[*ast.Ident]bool{}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					callIdent[fun] = true
				case *ast.SelectorExpr:
					callIdent[fun.Sel] = true
				}
				if callee := staticCallee(n.Pkg.Info, call); callee != nil {
					if cn := mod.Funcs[callee]; cn != nil && !seen[cn] {
						seen[cn] = true
						n.Callees = append(n.Callees, cn)
					}
				}
				return true
			}
			if id, ok := x.(*ast.Ident); ok && !callIdent[id] {
				if obj, _ := n.Pkg.Info.Uses[id].(*types.Func); obj != nil {
					if cn := mod.Funcs[obj]; cn != nil && !seenRef[cn] {
						seenRef[cn] = true
						n.Refs = append(n.Refs, cn)
					}
				}
			}
			return true
		})
	}
	for _, n := range mod.Nodes {
		for _, c := range n.Callees {
			c.Callers = append(c.Callers, n)
		}
	}
	mod.SCCs = tarjanSCC(mod.Nodes)
	computeSummaries(mod)
	mod.timed("lockorder", computeLockOrder)
	mod.timed("confinement", computeConfinement)
	mod.timed("atomichygiene", computeAtomicHygiene)
	mod.timed("noalloc", computeHotPaths)
	computeTypestate(mod)
	// Precompute the lazily memoized views so Pass.Mod is read-only
	// during (possibly parallel) analyzer execution.
	mod.fsMethodNames()
	mod.interfaceMethodNames()
	mod.entryGated()
	return mod
}

// timed runs one global pass and charges its wall time to analyzer name.
func (m *ModuleInfo) timed(name string, pass func(*ModuleInfo)) {
	t0 := nowMS()
	pass(m)
	m.ms[name] += nowMS() - t0
}

// HasPkgPath reports whether path is one of the loaded module packages.
func (m *ModuleInfo) HasPkgPath(path string) bool {
	return m.pkgPaths[path]
}

// staticCallee resolves a call expression to the concrete *types.Func it
// invokes, or nil for interface dispatch, function values, conversions
// and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel]
		}
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	if fn == nil {
		return nil
	}
	// An interface method has no body to summarize; the concrete target
	// is unknown statically.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if types.IsInterface(recv.Type()) {
			return nil
		}
	}
	return fn
}

// tarjanSCC computes strongly connected components over the Callees
// edges. With edges pointing caller -> callee, Tarjan emits each SCC
// before any SCC that calls into it, i.e. bottom-up.
func tarjanSCC(nodes []*FuncNode) [][]*FuncNode {
	index := make(map[*FuncNode]int, len(nodes))
	low := make(map[*FuncNode]int, len(nodes))
	onStack := make(map[*FuncNode]bool, len(nodes))
	var stack []*FuncNode
	var sccs [][]*FuncNode
	next := 0
	var strong func(n *FuncNode)
	strong = func(n *FuncNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, m := range n.Callees {
			if _, seen := index[m]; !seen {
				strong(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return sccs
}

// selfRecursive reports whether an SCC is genuinely recursive (more than
// one member, or a self-loop).
func selfRecursive(scc []*FuncNode) bool {
	if len(scc) > 1 {
		return true
	}
	n := scc[0]
	for _, c := range n.Callees {
		if c == n {
			return true
		}
	}
	return false
}

// fsMethodNames collects the method names of every interface type named
// "FileSystem" in the loaded packages — the syscall-visible surface the
// protocol analyzers anchor their entry-point rules to.
func (m *ModuleInfo) fsMethodNames() map[string]bool {
	if m.fsMethods != nil {
		return m.fsMethods
	}
	set := map[string]bool{}
	for _, pkg := range m.pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "FileSystem" {
					return true
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, mth := range it.Methods.List {
					for _, nm := range mth.Names {
						set[nm.Name] = true
					}
				}
				return true
			})
		}
	}
	m.fsMethods = set
	return set
}

// interfaceMethodNames collects the method names of every interface type
// declared anywhere in the module. A method whose name matches one may be
// invoked via dynamic dispatch the static call graph cannot see, so
// root-based checks (fencehygiene's leak analysis) must not judge it.
func (m *ModuleInfo) interfaceMethodNames() map[string]bool {
	if m.ifaceMths != nil {
		return m.ifaceMths
	}
	set := map[string]bool{}
	for _, pkg := range m.pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, mth := range it.Methods.List {
					for _, nm := range mth.Names {
						set[nm.Name] = true
					}
				}
				return true
			})
		}
	}
	m.ifaceMths = set
	return set
}

// IsFSEntry reports whether n is a syscall-visible filesystem entry
// point — a method whose name appears in a FileSystem interface and that
// takes a *Task parameter — and returns that parameter's index.
func (m *ModuleInfo) IsFSEntry(n *FuncNode) (taskParam int, ok bool) {
	if n.Decl.Recv == nil || !m.fsMethodNames()[n.Decl.Name.Name] {
		return 0, false
	}
	sig, ok := n.Obj.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if namedTypeIs(sig.Params().At(i).Type(), "Task") {
			return i, true
		}
	}
	return 0, false
}

// entryGated computes, per function, whether every static route from a
// call-graph root passes a completion gate before reaching it (greatest
// fixpoint over the summary call sites; roots are pessimistically
// ungated, and edges only seen inside function literals count as ungated
// calls from their enclosing function).
func (m *ModuleInfo) entryGated() map[*FuncNode]bool {
	if m.gatedCtx != nil {
		return m.gatedCtx
	}
	type site struct {
		caller *FuncNode
		gated  bool
	}
	sites := map[*FuncNode][]site{}
	counted := map[[2]*FuncNode]bool{}
	for _, n := range m.Nodes {
		for _, cs := range m.Summaries[n.Obj].Calls {
			if cn := m.Funcs[cs.Callee]; cn != nil {
				sites[cn] = append(sites[cn], site{n, cs.Gated})
				counted[[2]*FuncNode{n, cn}] = true
			}
		}
	}
	for _, n := range m.Nodes {
		for _, c := range n.Callees {
			if !counted[[2]*FuncNode{n, c}] {
				sites[c] = append(sites[c], site{n, false})
			}
		}
	}
	g := make(map[*FuncNode]bool, len(m.Nodes))
	for _, n := range m.Nodes {
		g[n] = len(sites[n]) > 0
	}
	for changed := true; changed; {
		changed = false
		for _, n := range m.Nodes {
			if !g[n] {
				continue
			}
			for _, s := range sites[n] {
				if !s.gated && !g[s.caller] {
					g[n] = false
					changed = true
					break
				}
			}
		}
	}
	m.gatedCtx = g
	return g
}
