package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NoAlloc certifies the //easyio:hotpath allocation contract: a function
// annotated
//
//	//easyio:hotpath
//
// must be allocation-free on its steady-state path, and so must every
// function it can statically reach. Per-function may-allocate summaries
// (make/new/&composite, append growth, closure capture, interface
// boxing, string<->[]byte conversion, map inserts, variadic calls, go
// statements, string concatenation) are computed by one syntax walk and
// propagated bottom-up over the call-graph SCCs; a fresh allocation
// reachable from a hot root fails the build with the exact site and the
// call chain that reaches it.
//
// The contract distinguishes *fresh* allocations (a new heap object per
// call) from *amortized* ones (append that grows a long-lived slice
// rooted in a field, parameter, or package variable — a high-water-mark
// buffer that stops allocating once warm). Fresh sites are findings;
// amortized sites are accepted and surfaced per root in the partition
// report, with the AllocsPerRun pins as the dynamic backstop.
//
// Ownership-style discharge keeps init and slow paths honest instead of
// suppressed: a function annotated //easyio:coldpath (free-list refill,
// lazy setup) may allocate and is not traversed; branches that are
// statically dead in the production build (constant-false conditions
// such as invariants.Enabled), error-guard arms (`if err != nil`),
// panic arguments and blocks that end in panic are crash/error paths
// and are discharged as cold. Calls with no static callee (function
// values, interface dispatch) are summary holes: they are counted per
// root as dynamic_calls in the partition report, not silently ignored.
//
// NoAlloc is a module-wide analyzer: summaries and root reachability are a
// property of the whole module, precomputed by BuildModule and replayed
// into the package owning each site.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "forbid heap allocation reachable from //easyio:hotpath roots",
	Run:  runModule,
}

// Annotation markers, recognized in a function's doc comment group.
const (
	hotpathMarker  = "easyio:hotpath"
	coldpathMarker = "easyio:coldpath"
)

// funcMarked reports whether fd's doc comment carries the marker (alone
// or followed by a rationale).
func funcMarked(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(strings.TrimPrefix(text, "/*"))
		text = strings.TrimSuffix(text, "*/")
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// allocSite is one may-allocate (or boxing) site inside a function body.
type allocSite struct {
	Pos  token.Pos
	What string
	// Loop marks sites inside a loop body: they repeat per iteration.
	Loop bool
}

// hotCall is one statically resolved call site with its context.
type hotCall struct {
	callee *FuncNode
	pos    token.Pos
	// cold marks calls discharged by a cold context (error arm, crash
	// path, dead branch); they are not traversed from hot roots.
	cold bool
}

// lineRange is a cold source region, exported for the -gcflags=-m
// cross-check (escape diagnostics inside it are explained).
type lineRange struct {
	file     string
	from, to int
}

// hotFacts is the per-function allocation summary.
type hotFacts struct {
	node *FuncNode
	// hot/cold record the annotations.
	hot, cold bool
	// fresh are per-call heap allocations; findings when hot-reachable.
	fresh []allocSite
	// amort are amortized high-water growth sites (accepted, surfaced).
	amort []allocSite
	// box are interface-boxing and fmt-family sites (boxing analyzer).
	box []allocSite
	// dyn are call sites with no static callee — summary holes.
	dyn []allocSite
	// calls are the statically resolved call sites with contexts.
	calls []hotCall
	// callPos records every static call site position (calls dedups per
	// callee); the escape cross-check exempts these lines.
	callPos []token.Pos
	// coldDischarges counts alloc/box sites discharged by cold context.
	coldDischarges int
	// coldRanges are the discharged source regions (for the -m check).
	coldRanges []lineRange
}

// moduleHot is the module-wide hot-path view BuildModule computes for
// the three perf-contract analyzers (noalloc, boxing, hotpathcover).
type moduleHot struct {
	facts  map[*types.Func]*hotFacts
	roots  []*FuncNode
	status []HotRootStatus
	// reach is the union of hot-reachable functions (non-cold edges from
	// every root), kept for the -gcflags=-m escape cross-check.
	reach map[*FuncNode]bool
	// coldUsed holds the //easyio:coldpath functions some hot path
	// discharges through; hotpathcover reports the others as stale.
	coldUsed map[*FuncNode]bool
}

// HotRootStatus is the per-root contract status rendered into the
// partition report.
type HotRootStatus struct {
	// Root is the annotated function, e.g. "sim.(*Engine).step".
	Root string `json:"root"`
	// Status is "noalloc" when no fresh allocation or boxing site is
	// reachable, else "allocating".
	Status string `json:"status"`
	// Reached counts the functions reachable on non-cold edges.
	Reached int `json:"reached_funcs"`
	// Fresh/Boxing count contract violations (zero once certified).
	Fresh  int `json:"fresh_sites"`
	Boxing int `json:"boxing_sites"`
	// Amortized counts accepted high-water growth sites.
	Amortized int `json:"amortized_sites"`
	// DynamicCalls counts summary holes (no static callee) on the paths;
	// the AllocsPerRun pins are the dynamic backstop for these.
	DynamicCalls int `json:"dynamic_calls"`
	// ColdDischarges counts sites and calls discharged as cold.
	ColdDischarges int `json:"cold_discharges"`
}

// hotLabel renders a function as pkg.(recv).name for findings/reports.
func hotLabel(n *FuncNode) string {
	pkg := ""
	if n.Obj.Pkg() != nil {
		pkg = n.Obj.Pkg().Name() + "."
	}
	if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "(" + ptr + named.Obj().Name() + ")." + n.Obj.Name()
		}
	}
	return pkg + n.Obj.Name()
}

// computeHotPaths scans every function body for allocation and boxing
// sites, then walks the call graph from each //easyio:hotpath root and
// precomputes the three analyzers' findings.
func computeHotPaths(mod *ModuleInfo, out *passOut) {
	hot := &moduleHot{facts: map[*types.Func]*hotFacts{}}
	mod.hot = hot
	for _, n := range mod.Nodes {
		f := &hotFacts{
			node: n,
			hot:  funcMarked(n.Decl, hotpathMarker),
			cold: funcMarked(n.Decl, coldpathMarker),
		}
		hot.facts[n.Obj] = f
		scanAllocs(mod, n, f)
		if f.hot {
			hot.roots = append(hot.roots, n)
		}
	}
	// Nodes are already in deterministic (package, file, decl) order, so
	// roots inherit it.
	emitHotFindings(mod, hot, out)
	emitCoverFindings(mod, hot, out)
}

// allocCtx is the walk context: cold regions discharge sites, loops mark
// sites as per-iteration.
type allocCtx struct {
	cold bool
	loop bool
}

// allocScan walks one function body collecting sites and call contexts.
type allocScan struct {
	mod   *ModuleInfo
	n     *FuncNode
	info  *types.Info
	facts *hotFacts
	// longLived marks local slice vars that alias a field/param-rooted
	// backing array (x := s.buf[:0]), so appends to them are amortized.
	longLived map[types.Object]bool
	// callIdx dedups call records per callee, keeping any non-cold site.
	callIdx map[*FuncNode]int
}

func scanAllocs(mod *ModuleInfo, n *FuncNode, facts *hotFacts) {
	s := &allocScan{
		mod:       mod,
		n:         n,
		info:      n.Pkg.Info,
		facts:     facts,
		longLived: map[types.Object]bool{},
		callIdx:   map[*FuncNode]int{},
	}
	s.seedAliases(n.Decl.Body)
	s.block(n.Decl.Body.List, allocCtx{cold: facts.cold})
	if facts.cold {
		// The whole body is a discharged slow path.
		s.markCold(n.Decl.Body)
	}
}

// seedAliases computes which local slice variables alias long-lived
// backing arrays, to a fixpoint (keep := w.due[:0]; out := keep ...).
func (s *allocScan) seedAliases(body *ast.BlockStmt) {
	assigns := [][2]ast.Expr{} // lhs, rhs pairs
	ast.Inspect(body, func(x ast.Node) bool {
		switch st := x.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					assigns = append(assigns, [2]ast.Expr{st.Lhs[i], st.Rhs[i]})
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					assigns = append(assigns, [2]ast.Expr{st.Names[i], st.Values[i]})
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			id, ok := ast.Unparen(a[0]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := s.info.Defs[id]
			if obj == nil {
				obj = s.info.Uses[id]
			}
			v, ok := obj.(*types.Var)
			if !ok || s.longLived[v] || !s.isLocal(v) {
				continue
			}
			switch v.Type().Underlying().(type) {
			case *types.Slice, *types.Map:
			default:
				continue
			}
			if s.rootLongLived(a[1]) {
				s.longLived[v] = true
				changed = true
			}
		}
	}
}

// isLocal reports whether v is declared inside this function body (as
// opposed to a parameter, receiver, or package variable).
func (s *allocScan) isLocal(v *types.Var) bool {
	if v.Parent() == nil {
		return false // fields, params/receivers in some positions
	}
	body := s.n.Decl.Body
	return v.Pos() >= body.Pos() && v.Pos() <= body.End()
}

// rootLongLived resolves an expression to its backing-array root and
// reports whether that root outlives the call (field, param, receiver,
// package var, or a local already known to alias one).
func (s *allocScan) rootLongLived(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return s.rootLongLived(e.X)
	case *ast.IndexExpr:
		return s.rootLongLived(e.X)
	case *ast.StarExpr:
		// Dereferencing a pointer reaches state that outlives the call.
		return s.rootLongLived(e.X)
	case *ast.SelectorExpr:
		// A field access (or package var) roots in long-lived state.
		return true
	case *ast.Ident:
		v, ok := s.objOf(e).(*types.Var)
		if !ok {
			return false
		}
		if !s.isLocal(v) {
			return true
		}
		return s.longLived[v]
	case *ast.CallExpr:
		// append(x, ...) keeps x's backing when capacity suffices.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, ok := s.info.Uses[id].(*types.Builtin); ok && id.Name == "append" && len(e.Args) > 0 {
				return s.rootLongLived(e.Args[0])
			}
		}
	}
	return false
}

func (s *allocScan) objOf(id *ast.Ident) types.Object {
	if o := s.info.Uses[id]; o != nil {
		return o
	}
	return s.info.Defs[id]
}

func (s *allocScan) addFresh(pos token.Pos, what string, ctx allocCtx) {
	if ctx.cold {
		s.facts.coldDischarges++
		return
	}
	s.facts.fresh = append(s.facts.fresh, allocSite{Pos: pos, What: what, Loop: ctx.loop})
}

func (s *allocScan) addAmort(pos token.Pos, what string, ctx allocCtx) {
	if ctx.cold {
		s.facts.coldDischarges++
		return
	}
	s.facts.amort = append(s.facts.amort, allocSite{Pos: pos, What: what, Loop: ctx.loop})
}

func (s *allocScan) addBox(pos token.Pos, what string, ctx allocCtx) {
	if ctx.cold {
		s.facts.coldDischarges++
		return
	}
	s.facts.box = append(s.facts.box, allocSite{Pos: pos, What: what, Loop: ctx.loop})
}

func (s *allocScan) addDyn(pos token.Pos, what string, ctx allocCtx) {
	if ctx.cold {
		return
	}
	s.facts.dyn = append(s.facts.dyn, allocSite{Pos: pos, What: what, Loop: ctx.loop})
}

// markCold records a discharged source region for the -gcflags=-m
// cross-check.
func (s *allocScan) markCold(node ast.Node) {
	fset := s.n.Pkg.Fset
	from := fset.Position(node.Pos())
	to := fset.Position(node.End())
	s.facts.coldRanges = append(s.facts.coldRanges, lineRange{file: from.Filename, from: from.Line, to: to.Line})
}

func (s *allocScan) addCall(callee *FuncNode, pos token.Pos, ctx allocCtx) {
	s.facts.callPos = append(s.facts.callPos, pos)
	if i, ok := s.callIdx[callee]; ok {
		if !ctx.cold {
			s.facts.calls[i].cold = false
		}
		return
	}
	s.callIdx[callee] = len(s.facts.calls)
	s.facts.calls = append(s.facts.calls, hotCall{callee: callee, pos: pos, cold: ctx.cold})
}

// block walks a statement list; a list that ends in panic is a crash
// path and is discharged as cold.
func (s *allocScan) block(list []ast.Stmt, ctx allocCtx) {
	if !ctx.cold && len(list) > 0 && isPanicStmt(list[len(list)-1]) {
		ctx.cold = true
		for _, st := range list {
			s.markCold(st)
		}
	}
	for _, st := range list {
		s.stmt(st, ctx)
	}
}

func isPanicStmt(st ast.Stmt) bool {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// constCond reports a condition's constant boolean value, if any.
func (s *allocScan) constCond(cond ast.Expr) (val, isConst bool) {
	if tv, ok := s.info.Types[cond]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
		return constant.BoolVal(tv.Value), true
	}
	return false, false
}

// errGuard classifies error-nil guards: `err != nil` makes the then-arm
// an error path; `err == nil` makes the else-arm one.
type errGuard int

const (
	guardNone errGuard = iota
	guardThenCold
	guardElseCold
)

func (s *allocScan) errGuardOf(cond ast.Expr) errGuard {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return guardNone
	}
	switch be.Op {
	case token.LAND:
		// Both operands must hold, so either guard colds the then-arm.
		if s.errGuardOf(be.X) == guardThenCold || s.errGuardOf(be.Y) == guardThenCold {
			return guardThenCold
		}
		return guardNone
	case token.NEQ, token.EQL:
	default:
		return guardNone
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil" && s.info.Uses[id] == types.Universe.Lookup("nil")
	}
	isErr := func(e ast.Expr) bool {
		tv, ok := s.info.Types[e]
		return ok && tv.Type != nil && namedTypeIs(tv.Type, "error")
	}
	var other ast.Expr
	switch {
	case isNil(be.X):
		other = be.Y
	case isNil(be.Y):
		other = be.X
	default:
		return guardNone
	}
	if !isErr(other) {
		return guardNone
	}
	if be.Op == token.NEQ {
		return guardThenCold
	}
	return guardElseCold
}

func (s *allocScan) stmt(st ast.Stmt, ctx allocCtx) {
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		s.block(st.List, ctx)
	case *ast.ExprStmt:
		s.expr(st.X, ctx)
	case *ast.IfStmt:
		s.stmt(st.Init, ctx)
		if val, isConst := s.constCond(st.Cond); isConst {
			// The production build eliminates the dead arm (e.g.
			// invariants.Enabled is constant false without the tag).
			if val {
				s.block(st.Body.List, ctx)
			} else {
				s.markCold(st.Body)
				if st.Else != nil {
					s.stmt(st.Else, ctx)
				}
			}
			return
		}
		s.expr(st.Cond, ctx)
		thenCtx, elseCtx := ctx, ctx
		switch s.errGuardOf(st.Cond) {
		case guardThenCold:
			if !thenCtx.cold {
				s.markCold(st.Body)
			}
			thenCtx.cold = true
		case guardElseCold:
			if st.Else != nil && !elseCtx.cold {
				s.markCold(st.Else)
			}
			elseCtx.cold = true
		}
		s.block(st.Body.List, thenCtx)
		if st.Else != nil {
			s.stmt(st.Else, elseCtx)
		}
	case *ast.ForStmt:
		s.stmt(st.Init, ctx)
		if st.Cond != nil {
			s.expr(st.Cond, ctx)
		}
		s.stmt(st.Post, ctx)
		inner := ctx
		inner.loop = true
		s.block(st.Body.List, inner)
	case *ast.RangeStmt:
		s.expr(st.X, ctx)
		inner := ctx
		inner.loop = true
		s.block(st.Body.List, inner)
	case *ast.SwitchStmt:
		s.stmt(st.Init, ctx)
		if st.Tag != nil {
			s.expr(st.Tag, ctx)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				s.expr(e, ctx)
			}
			s.block(cc.Body, ctx)
		}
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init, ctx)
		s.stmt(st.Assign, ctx)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			s.block(cc.Body, ctx)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			s.stmt(cc.Comm, ctx)
			s.block(cc.Body, ctx)
		}
	case *ast.AssignStmt:
		s.assign(st, ctx)
	case *ast.ReturnStmt:
		s.returnStmt(st, ctx)
	case *ast.SendStmt:
		s.expr(st.Chan, ctx)
		s.expr(st.Value, ctx)
		if ch, ok := s.info.Types[st.Chan]; ok && ch.Type != nil {
			if c, ok := ch.Type.Underlying().(*types.Chan); ok {
				s.boxCheck(c.Elem(), st.Value, "channel send", ctx)
			}
		}
	case *ast.GoStmt:
		s.addFresh(st.Pos(), "go statement spawns a goroutine", ctx)
		// The spawned frame runs off this path; the spawn is the site.
	case *ast.DeferStmt:
		if ctx.loop {
			s.addFresh(st.Pos(), "defer in loop allocates a defer record per iteration", ctx)
		}
		s.call(st.Call, ctx)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				s.expr(v, ctx)
			}
			if vs.Type != nil && len(vs.Values) > 0 {
				if tv, ok := s.info.Types[vs.Type]; ok && tv.Type != nil {
					for _, v := range vs.Values {
						s.boxCheck(tv.Type, v, "assignment", ctx)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, ctx)
	case *ast.IncDecStmt:
		s.expr(st.X, ctx)
	}
}

func (s *allocScan) assign(st *ast.AssignStmt, ctx allocCtx) {
	for _, r := range st.Rhs {
		s.expr(r, ctx)
	}
	for i, l := range st.Lhs {
		// A store through a map index grows the map's buckets. Like
		// append, growth of a long-lived map is amortized high-water
		// behaviour; inserts into a function-local map are per-call.
		if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
			if tv, ok := s.info.Types[ix.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if s.rootLongLived(ix.X) {
						s.addAmort(l.Pos(), "insert grows a long-lived map (amortized)", ctx)
					} else {
						s.addFresh(l.Pos(), "map insert may grow buckets", ctx)
					}
				}
			}
			s.expr(ix.X, ctx)
			s.expr(ix.Index, ctx)
		} else if st.Tok != token.DEFINE {
			s.expr(l, ctx)
		}
		// Assigning a concrete value into an interface location boxes it.
		if st.Tok == token.ASSIGN && i < len(st.Rhs) {
			if tv, ok := s.info.Types[l]; ok && tv.Type != nil {
				s.boxCheck(tv.Type, st.Rhs[i], "assignment", ctx)
			}
		}
	}
}

func (s *allocScan) returnStmt(st *ast.ReturnStmt, ctx allocCtx) {
	for _, r := range st.Results {
		s.expr(r, ctx)
	}
	sig, ok := s.n.Obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(st.Results) {
		return
	}
	for i, r := range st.Results {
		s.boxCheck(sig.Results().At(i).Type(), r, "return", ctx)
	}
}

// boxCheck records a boxing site when a concrete, non-pointer-shaped
// value flows into an interface-typed location (pointer-shaped values
// are stored directly in the interface word and do not allocate).
func (s *allocScan) boxCheck(dst types.Type, src ast.Expr, what string, ctx allocCtx) {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return
	}
	tv, ok := s.info.Types[src]
	if !ok || tv.Type == nil || types.IsInterface(tv.Type.Underlying()) {
		return
	}
	if tv.IsNil() || pointerShaped(tv.Type) {
		return
	}
	s.addBox(src.Pos(), exprString(src)+" boxes into "+dst.String()+" ("+what+")", ctx)
}

// pointerShaped reports whether values of t fit in an interface data
// word without allocating: pointers, channels, maps, funcs, unsafe
// pointers.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func (s *allocScan) expr(e ast.Expr, ctx allocCtx) {
	switch e := e.(type) {
	case nil:
	case *ast.ParenExpr:
		s.expr(e.X, ctx)
	case *ast.CallExpr:
		s.call(e, ctx)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				s.addFresh(e.Pos(), "&"+typeOfLit(s.info, cl)+"{...} allocates", ctx)
				s.litElems(cl, ctx)
				return
			}
		}
		s.expr(e.X, ctx)
	case *ast.CompositeLit:
		if tv, ok := s.info.Types[e]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				s.addFresh(e.Pos(), "slice literal allocates", ctx)
			case *types.Map:
				s.addFresh(e.Pos(), "map literal allocates", ctx)
			}
		}
		s.litElems(e, ctx)
	case *ast.FuncLit:
		s.addFresh(e.Pos(), "func literal may capture and allocate a closure", ctx)
		s.block(e.Body.List, ctx)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			if tv, ok := s.info.Types[e]; ok && tv.Type != nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 && tv.Value == nil {
					s.addFresh(e.Pos(), "string concatenation allocates", ctx)
				}
			}
		}
		s.expr(e.X, ctx)
		s.expr(e.Y, ctx)
	case *ast.SelectorExpr:
		s.expr(e.X, ctx)
		// A method value (captured bound method) allocates its closure.
		if sel, ok := s.info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			if _, ok := s.info.Types[e]; ok {
				// Only when used as a value, not called; call sites strip
				// the selector before reaching here via s.call.
				s.addFresh(e.Pos(), "method value allocates a bound-method closure", ctx)
			}
		}
	case *ast.IndexExpr:
		s.expr(e.X, ctx)
		s.expr(e.Index, ctx)
	case *ast.SliceExpr:
		s.expr(e.X, ctx)
		s.expr(e.Low, ctx)
		s.expr(e.High, ctx)
		s.expr(e.Max, ctx)
	case *ast.StarExpr:
		s.expr(e.X, ctx)
	case *ast.TypeAssertExpr:
		s.expr(e.X, ctx)
	case *ast.KeyValueExpr:
		s.expr(e.Key, ctx)
		s.expr(e.Value, ctx)
	}
}

// litElems walks composite-literal elements, checking interface-typed
// struct fields for boxing.
func (s *allocScan) litElems(cl *ast.CompositeLit, ctx allocCtx) {
	var st *types.Struct
	if tv, ok := s.info.Types[cl]; ok && tv.Type != nil {
		st, _ = tv.Type.Underlying().(*types.Struct)
	}
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok && st != nil {
			if key, ok := kv.Key.(*ast.Ident); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Name() == key.Name {
						s.boxCheck(st.Field(i).Type(), kv.Value, "composite literal", ctx)
						break
					}
				}
			}
			s.expr(kv.Value, ctx)
			continue
		}
		s.expr(el, ctx)
	}
}

func typeOfLit(info *types.Info, cl *ast.CompositeLit) string {
	if cl.Type != nil {
		return exprString(cl.Type)
	}
	if tv, ok := info.Types[cl]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return "T"
}

// call handles builtins, conversions, and function calls.
func (s *allocScan) call(call *ast.CallExpr, ctx allocCtx) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := s.info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				s.addFresh(call.Pos(), exprString(call)+" allocates", ctx)
			case "new":
				s.addFresh(call.Pos(), exprString(call)+" allocates", ctx)
			case "append":
				if len(call.Args) > 0 {
					if s.rootLongLived(call.Args[0]) {
						s.addAmort(call.Pos(), "append grows a long-lived buffer (amortized)", ctx)
					} else {
						s.addFresh(call.Pos(), "append grows a function-local slice", ctx)
					}
				}
			case "panic":
				// Crash path: arguments are discharged.
				cold := ctx
				if !cold.cold {
					for _, a := range call.Args {
						s.markCold(a)
					}
				}
				cold.cold = true
				for _, a := range call.Args {
					s.expr(a, cold)
				}
				return
			}
			for _, a := range call.Args {
				s.expr(a, ctx)
			}
			return
		}
	}
	// Conversions.
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		arg := call.Args[0]
		if conv := convAllocs(s.info, dst, arg); conv != "" {
			s.addFresh(call.Pos(), conv, ctx)
		} else {
			s.boxCheck(dst, arg, "conversion", ctx)
		}
		s.expr(arg, ctx)
		return
	}
	// Function calls: resolve the static callee if any.
	callee := staticCallee(s.info, call)
	if callee != nil {
		if cn := s.mod.Funcs[callee]; cn != nil {
			s.addCall(cn, call.Pos(), ctx)
		} else if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
			s.addBox(call.Pos(), "fmt."+callee.Name()+" formats and boxes its arguments", ctx)
		}
	} else if !isDirectFuncLit(call) && !s.isNonFuncCall(call) {
		s.addDyn(call.Pos(), exprString(call.Fun), ctx)
	}
	// Variadic expansion allocates the argument slice; interface
	// parameters box concrete arguments.
	if sig := callSignature(s.info, call); sig != nil {
		s.sigChecks(call, sig, callee, ctx)
	}
	// Walk operands. A func literal invoked in place does not escape.
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		s.block(fl.Body.List, ctx)
	} else if se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		s.expr(se.X, ctx)
	} else if callee == nil {
		s.expr(call.Fun, ctx)
	}
	for _, a := range call.Args {
		s.expr(a, ctx)
	}
}

func isDirectFuncLit(call *ast.CallExpr) bool {
	_, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	return ok
}

// isNonFuncCall filters pseudo-calls that are not dynamic dispatch:
// builtins reached via selector (unsafe.Sizeof) and type expressions.
func (s *allocScan) isNonFuncCall(call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = s.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = s.info.Uses[fun.Sel]
	}
	switch obj.(type) {
	case *types.Builtin, *types.TypeName:
		return true
	}
	return false
}

// sigChecks flags variadic-slice allocation and per-argument boxing
// against the callee signature. fmt-family callees are already reported
// whole, so their argument boxing is not double-counted.
func (s *allocScan) sigChecks(call *ast.CallExpr, sig *types.Signature, callee *types.Func, ctx allocCtx) {
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		return
	}
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() && n > 0 {
		fixed := n - 1
		if call.Ellipsis == token.NoPos && len(call.Args) > fixed {
			s.addFresh(call.Pos(), "variadic call allocates its argument slice", ctx)
			if elemSlice, ok := params.At(fixed).Type().(*types.Slice); ok {
				for _, a := range call.Args[fixed:] {
					s.boxCheck(elemSlice.Elem(), a, "variadic argument", ctx)
				}
			}
		}
		n = fixed
	}
	for i := 0; i < n && i < len(call.Args); i++ {
		s.boxCheck(params.At(i).Type(), call.Args[i], "argument", ctx)
	}
}

// convAllocs describes an allocating conversion (string <-> []byte or
// []rune), or "" for free conversions.
func convAllocs(info *types.Info, dst types.Type, arg ast.Expr) string {
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil {
		return ""
	}
	src := tv.Type
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
	}
	if isStr(dst) && isByteOrRuneSlice(src) {
		return "[]byte/[]rune -> string conversion copies"
	}
	if isByteOrRuneSlice(dst) && isStr(src) {
		return "string -> []byte/[]rune conversion copies"
	}
	return ""
}

// callSignature returns the callee signature of a call, or nil.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// emitHotFindings walks from each hot root over non-cold static edges
// and precomputes noalloc/boxing findings plus per-root status rows.
func emitHotFindings(mod *ModuleInfo, hot *moduleHot, out *passOut) {
	hot.reach = map[*FuncNode]bool{}
	hot.coldUsed = map[*FuncNode]bool{}
	reportedFresh := map[token.Pos]bool{}
	reportedBox := map[token.Pos]bool{}
	for _, root := range hot.roots {
		rootLabel := hotLabel(root)
		status := HotRootStatus{Root: rootLabel, Status: "noalloc"}
		// BFS with parent links for chain rendering.
		parent := map[*FuncNode]*FuncNode{root: nil}
		queue := []*FuncNode{root}
		var order []*FuncNode
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			order = append(order, n)
			f := hot.facts[n.Obj]
			if f == nil {
				continue
			}
			for _, c := range f.calls {
				if c.cold {
					status.ColdDischarges++
					continue
				}
				cf := hot.facts[c.callee.Obj]
				if cf != nil && cf.cold {
					// //easyio:coldpath discharges the whole callee.
					status.ColdDischarges++
					hot.coldUsed[c.callee] = true
					continue
				}
				if _, seen := parent[c.callee]; seen {
					continue
				}
				parent[c.callee] = n
				queue = append(queue, c.callee)
			}
		}
		status.Reached = len(order)
		for _, n := range order {
			hot.reach[n] = true
			f := hot.facts[n.Obj]
			if f == nil {
				continue
			}
			chain := renderChain(parent, n)
			for _, site := range f.fresh {
				status.Fresh++
				if reportedFresh[site.Pos] {
					continue
				}
				reportedFresh[site.Pos] = true
				msg := "hot path " + rootLabel + ": " + site.What
				if site.Loop {
					msg += " (per loop iteration)"
				}
				if chain != "" {
					msg += "; reached via " + chain
				}
				msg += " — hoist to setup, reuse a buffer, or move behind //easyio:coldpath"
				out.report("noalloc", modDiag{Pkg: n.Pkg, Pos: site.Pos, Msg: msg})
			}
			for _, site := range f.box {
				status.Boxing++
				if reportedBox[site.Pos] {
					continue
				}
				reportedBox[site.Pos] = true
				msg := "hot path " + rootLabel + ": " + site.What
				if chain != "" {
					msg += "; reached via " + chain
				}
				out.report("boxing", modDiag{Pkg: n.Pkg, Pos: site.Pos, Msg: msg})
			}
			status.Amortized += len(f.amort)
			status.DynamicCalls += len(f.dyn)
			status.ColdDischarges += f.coldDischarges
		}
		if status.Fresh > 0 || status.Boxing > 0 {
			status.Status = "allocating"
		}
		hot.status = append(hot.status, status)
	}
	sort.Slice(hot.status, func(i, j int) bool { return hot.status[i].Root < hot.status[j].Root })
}

// renderChain formats root → ... → n (omitting the trivial root-only
// chain).
func renderChain(parent map[*FuncNode]*FuncNode, n *FuncNode) string {
	if parent[n] == nil {
		return ""
	}
	var names []string
	for m := n; m != nil; m = parent[m] {
		names = append(names, hotLabel(m))
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// LineSpan is an inclusive source line range.
type LineSpan struct {
	From, To int
}

// EscapeScope is one hot-reachable function body for the -gcflags=-m
// cross-check: compiler escape diagnostics inside [From, To] of File are
// contract violations unless they land in a Cold region (discharged) or
// on an Amortized line (accepted high-water growth).
type EscapeScope struct {
	Func      string
	File      string
	Body      LineSpan
	Cold      []LineSpan
	Amortized []int
	// CallLines are lines holding a statically resolved in-module call
	// (or a summary-hole dynamic call). The compiler attributes an
	// inlined callee's allocations — cold pool refills, panic-argument
	// boxing on failure paths — to the caller's line; the callee's own
	// normal-flow allocations are already checked at its definition,
	// since every hot-reachable callee is a scope of its own.
	CallLines []int
}

// EscapeScopes renders every hot-reachable function (union over roots,
// non-cold edges) for the escape cross-check, in deterministic node
// order. Functions outside the module's hot paths are not included —
// they may allocate freely.
func (m *ModuleInfo) EscapeScopes() []EscapeScope {
	var out []EscapeScope
	for _, n := range m.Nodes {
		if !m.hot.reach[n] || n.Decl.Body == nil {
			continue
		}
		f := m.hot.facts[n.Obj]
		if f == nil || f.cold {
			continue
		}
		fset := n.Pkg.Fset
		from := fset.Position(n.Decl.Pos())
		to := fset.Position(n.Decl.End())
		sc := EscapeScope{
			Func: hotLabel(n),
			File: from.Filename,
			Body: LineSpan{From: from.Line, To: to.Line},
		}
		for _, r := range f.coldRanges {
			sc.Cold = append(sc.Cold, LineSpan{From: r.from, To: r.to})
		}
		for _, site := range f.amort {
			sc.Amortized = append(sc.Amortized, fset.Position(site.Pos).Line)
		}
		for _, p := range f.callPos {
			sc.CallLines = append(sc.CallLines, fset.Position(p).Line)
		}
		for _, site := range f.dyn {
			sc.CallLines = append(sc.CallLines, fset.Position(site.Pos).Line)
		}
		out = append(out, sc)
	}
	return out
}

// HotRoots returns the per-root contract status rows for the partition
// report (sorted by root label; empty, not nil, when no annotations).
func (m *ModuleInfo) HotRoots() []HotRootStatus {
	if m.hot.status == nil {
		return []HotRootStatus{}
	}
	return m.hot.status
}
