package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"runtime"
	"slices"
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
	// callNames are the names of every call's callee in the body
	// (`f` of f() and x.f()), resolved or not; the typestate engine's
	// op-name pre-filter reads them.
	callNames map[string]bool
	// lits are the function literals in the body, nested ones included,
	// in pre-order (an ast.Inspect of the body): the anonymous units the
	// typestate engine and lockorder walk in their own frames.
	lits []*ast.FuncLit
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

	// locks/conf are the concurrency-soundness views BuildPartition
	// renders beside the lockorder/confinement findings.
	locks *moduleLocks
	conf  *confinementInfo
	// hot is the module-wide hot-path allocation-contract view behind
	// noalloc, boxing and hotpathcover, which BuildPartition and the
	// escape cross-check render (noalloc.go).
	hot *moduleHot
	// typestate holds the per-protocol results of the declarative
	// typestate engine (typestate.go), one entry per registered
	// protocol, in Protocols() order.
	typestate []*protoResult
	// findings holds every module-wide analyzer's findings, keyed by
	// analyzer name, in the order its BuildModule pass found them;
	// runModule replays them into the owning packages.
	findings map[string][]modDiag
	// ms is the wall time of each global pass above, in milliseconds,
	// keyed by the analyzer that replays it; RunAnalyzersOpts adds it
	// into RunResult.AnalyzerMS.
	ms map[string]float64
	// callGraphMS and summariesMS are BuildModule's own work in
	// milliseconds: the call graph with its SCCs, then the effect
	// summaries (wall time inside the job that computes them).
	// RunAnalyzersOpts copies them into RunResult.
	callGraphMS, summariesMS float64

	pkgs     []*Package
	pkgPaths map[string]bool
	// fsMethods and ifaceMths are the method names of the module's
	// interfaces named FileSystem, and of all its interfaces.
	fsMethods, ifaceMths map[string]bool
	// gated is entryGated's result, read by cbgate.
	gated map[*FuncNode]bool
}

// modDiag is a module-level finding precomputed by BuildModule and
// replayed by runModule into the package owning its position.
type modDiag struct {
	Pkg *Package
	Pos token.Pos
	Msg string
	// Trace is the protocol state trace of a typestate finding; nil for
	// every other analyzer.
	Trace []TraceStep
}

// passOut is what module-wide passes emit: findings and wall time in
// milliseconds, both keyed by analyzer name. Every BuildModule job
// writes its own, and BuildModule merges them into ModuleInfo.
type passOut struct {
	findings map[string][]modDiag
	ms       map[string]float64
}

// report records one finding of the module-wide analyzer name.
func (o *passOut) report(name string, d modDiag) {
	if o.findings == nil {
		o.findings = map[string][]modDiag{}
	}
	o.findings[name] = append(o.findings[name], d)
}

// timed runs one module-wide pass and charges its wall time to analyzer
// name.
func (o *passOut) timed(m *ModuleInfo, name string, pass func(*ModuleInfo, *passOut)) {
	t0 := nowMS()
	pass(m, o)
	if o.ms == nil {
		o.ms = map[string]float64{}
	}
	o.ms[name] += nowMS() - t0
}

// runModule is the Run of every module-wide analyzer: it replays the
// findings BuildModule recorded under the analyzer's name into the
// package that owns each position.
func runModule(pass *Pass) {
	for _, d := range pass.Mod.findings[pass.Analyzer.Name] {
		if d.Pkg == pass.Pkg {
			pass.reportTrace(d.Pos, d.Msg, d.Trace)
		}
	}
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
// of loaded packages, and runs the module-wide analyzers' passes over
// them, on up to runtime.GOMAXPROCS(0) workers.
func BuildModule(pkgs []*Package) *ModuleInfo {
	t0 := nowMS()
	mod := &ModuleInfo{
		Funcs:     map[*types.Func]*FuncNode{},
		Summaries: map[*types.Func]*Summary{},
		findings:  map[string][]modDiag{},
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
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg, callNames: map[string]bool{}}
				mod.Funcs[obj] = node
				mod.Nodes = append(mod.Nodes, node)
			}
		}
	}
	// Each body scan writes only its own node's fields.
	fanOut(len(mod.Nodes), runtime.GOMAXPROCS(0), func(i int) {
		n := mod.Nodes[i]
		seen := map[*FuncNode]bool{}
		seenRef := map[*FuncNode]bool{}
		// callIdent marks the identifiers that name a call's callee, so
		// the reference pass below only sees value references. Inspect is
		// pre-order: a CallExpr is visited before its Fun's identifiers.
		callIdent := map[*ast.Ident]bool{}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok {
				n.lits = append(n.lits, lit)
				return true
			}
			if call, ok := x.(*ast.CallExpr); ok {
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					callIdent[fun] = true
					n.callNames[fun.Name] = true
				case *ast.SelectorExpr:
					callIdent[fun.Sel] = true
					n.callNames[fun.Sel.Name] = true
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
	})
	for _, n := range mod.Nodes {
		for _, c := range n.Callees {
			c.Callers = append(c.Callers, n)
		}
	}
	mod.SCCs = tarjan(mod.Nodes, func(n *FuncNode) []*FuncNode { return n.Callees })
	mod.callGraphMS = nowMS() - t0
	// The jobs below read the call graph and write nothing another job
	// reads: each writes its own passOut and the ModuleInfo fields its
	// work owns. They run longest first. The typestate engine is one job,
	// its protocols serial in Protocols() order, so each protocol's
	// charged milliseconds stay its serial cost rather than a share of a
	// contended CPU. lockorder is the only pass that reads the effect
	// summaries, so they (and entryGated, cbgate's table, built from
	// them) run in its job.
	jobs := []func(*passOut){
		func(o *passOut) { computeTypestate(mod, o) },
		func(o *passOut) {
			t := nowMS()
			computeSummaries(mod)
			mod.summariesMS = nowMS() - t
			mod.gated = entryGated(mod)
			o.timed(mod, "lockorder", computeLockOrder)
		},
		func(o *passOut) { o.timed(mod, "noalloc", computeHotPaths) },
		func(o *passOut) { o.timed(mod, "atomichygiene", computeAtomicHygiene) },
		func(o *passOut) { mod.fsMethods, mod.ifaceMths = interfaceMethodNames(pkgs) },
		func(o *passOut) { o.timed(mod, "confinement", computeConfinement) },
	}
	outs := make([]passOut, len(jobs)+1)
	fanOut(len(jobs), runtime.GOMAXPROCS(0), func(i int) { jobs[i](&outs[i]) })
	// fencehygiene reads persistorder's result, so it runs after the join.
	outs[len(jobs)].timed(mod, "fencehygiene", computeFenceHygiene)
	// Every analyzer name is written by one job, so the merged findings
	// keep each pass's own order.
	for _, o := range outs {
		maps.Copy(mod.findings, o.findings)
		maps.Copy(mod.ms, o.ms)
	}
	return mod
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

// tarjan computes the strongly connected components of the graph whose
// edges are succ, starting depth-first searches from nodes in order. Each
// SCC is emitted after every SCC it reaches: with edges pointing caller ->
// callee, that is bottom-up.
func tarjan[N comparable](nodes []N, succ func(N) []N) [][]N {
	index := make(map[N]int, len(nodes))
	low := make(map[N]int, len(nodes))
	onStack := make(map[N]bool, len(nodes))
	var stack []N
	var sccs [][]N
	var strong func(v N)
	strong = func(v N) {
		low[v] = len(index)
		index[v] = len(index)
		stack = append(stack, v)
		onStack[v] = true
		for _, u := range succ(v) {
			if _, seen := index[u]; !seen {
				strong(u)
				low[v] = min(low[v], low[u])
			} else if onStack[u] {
				low[v] = min(low[v], index[u])
			}
		}
		if low[v] == index[v] {
			var scc []N
			for {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[u] = false
				scc = append(scc, u)
				if u == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return sccs
}

// sccFixpoint fills facts bottom-up over mod.SCCs. A function outside any
// recursion is summarized once. The members of a recursive SCC (more than
// one member, or a self-loop) start from empty and are re-summarized until
// no fingerprint changes, at most six rounds; if they still change,
// widen (when non-nil) closes the SCC before any caller is summarized.
func sccFixpoint[F interface{ fingerprint() string }](mod *ModuleInfo, facts map[*types.Func]F, empty, summarize func(*FuncNode) F, widen func(scc []*FuncNode)) {
	for _, scc := range mod.SCCs {
		if len(scc) == 1 && !slices.Contains(scc[0].Callees, scc[0]) {
			facts[scc[0].Obj] = summarize(scc[0])
			continue
		}
		for _, n := range scc {
			facts[n.Obj] = empty(n)
		}
		stable := false
		for round := 0; round < 6 && !stable; round++ {
			stable = true
			for _, n := range scc {
				next := summarize(n)
				if next.fingerprint() != facts[n.Obj].fingerprint() {
					stable = false
				}
				facts[n.Obj] = next
			}
		}
		if !stable && widen != nil {
			widen(scc)
		}
	}
}

// derefNamed strips every pointer from t and returns the named type
// underneath, or nil (t nil or not named).
func derefNamed(t types.Type) *types.Named {
	for p, ok := t.(*types.Pointer); ok; p, ok = t.(*types.Pointer) {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// namedStruct is derefNamed restricted to a struct type declared in a
// package, or nil.
func namedStruct(t types.Type) *types.Named {
	n := derefNamed(t)
	if n == nil || n.Obj().Pkg() == nil {
		return nil
	}
	if _, ok := n.Obj().Type().Underlying().(*types.Struct); !ok {
		return nil
	}
	return n
}

// namedTypeIs reports whether t, behind any pointers, is a named type
// with the given name.
func namedTypeIs(t types.Type, name string) bool {
	n := derefNamed(t)
	return n != nil && n.Obj().Name() == name
}

// interfaceMethodNames collects the method names of every interface
// type declared in pkgs (all), and of those named "FileSystem" alone
// (fs): the syscall-visible surface the entry-point rules anchor to. A
// method whose name is in all may be invoked via dynamic dispatch the
// static call graph cannot see, so root-based checks (fencehygiene's
// leak analysis) must not judge it.
func interfaceMethodNames(pkgs []*Package) (fs, all map[string]bool) {
	fs, all = map[string]bool{}, map[string]bool{}
	for _, pkg := range pkgs {
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
						all[nm.Name] = true
						if ts.Name.Name == "FileSystem" {
							fs[nm.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	return fs, all
}

// IsFSEntry reports whether n is a syscall-visible filesystem entry
// point — a method whose name appears in a FileSystem interface and that
// takes a *Task parameter — and returns that parameter's index.
func (m *ModuleInfo) IsFSEntry(n *FuncNode) (taskParam int, ok bool) {
	if n.Decl.Recv == nil || !m.fsMethods[n.Decl.Name.Name] {
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
func entryGated(m *ModuleInfo) map[*FuncNode]bool {
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
	return g
}
