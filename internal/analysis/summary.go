package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strconv"
	"strings"
)

// This file computes per-function effect summaries: which parameters a
// nil value would let reach a blocking Park/Wait, whether every path
// passes the completion gate, which CPU cost constants are charged how
// many times, which param-rooted locks are released on every normal
// exit, which locks a path still holds where it leaves the function, and
// where DMA completion SNs are read without a dominating gate.
// Summaries are propagated bottom-up over the call-graph SCCs
// (callgraph.go) with a bounded fixpoint plus widening inside recursive
// components, and analyzers consume them through Pass.Mod.

// MinMax bounds how often something happens across the normal
// (non-panicking) executions of a function. satMax means "unbounded"
// (charge inside a loop, or a recursion the widening cut off).
type MinMax struct{ Min, Max int }

const satMax = 1 << 20

func (m MinMax) add(o MinMax) MinMax {
	return MinMax{Min: satAdd(m.Min, o.Min), Max: satAdd(m.Max, o.Max)}
}

func (m MinMax) union(o MinMax) MinMax {
	out := m
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	return out
}

func satAdd(a, b int) int {
	if s := a + b; s < satMax {
		return s
	}
	return satMax
}

// sortedKeys returns m's keys in sorted order: map-derived iteration with
// side effects stays deterministic (and our own maporder analyzer quiet).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CallSite is one statically resolved call, with the local gate state at
// the point of call (true when a completion-gate pass dominates it).
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
	Gated  bool
}

// NilBlock is a call site that passes an untyped nil to a parameter the
// callee blocks on.
type NilBlock struct {
	Pos token.Pos
	Via string
}

// SNRead is a completion-SN read not dominated by a gate pass inside its
// own function (cbgate decides via calling context whether it is safe).
type SNRead struct {
	Pos token.Pos
}

// Leak is a lock still held where a path leaves its function.
type Leak struct {
	Pos    token.Pos // the return, the panic or the closing brace
	Where  string    // "return", "panic" or "function end"
	Recv   string    // the rendered receiver ("ino.Mu")
	Locked token.Pos // the Lock call
}

// Summary is the effect summary of one function. Parameter indices count
// the declared parameters left to right starting at 0; the receiver is
// index -1.
type Summary struct {
	Node *FuncNode
	// BlocksOn maps a parameter index to a description of the blocking
	// operation a nil value of that parameter would reach unguarded.
	BlocksOn map[int]string
	// NilBlocks are call sites inside this function that pass a nil
	// literal into a blocking parameter of a callee.
	NilBlocks []NilBlock
	// GatesAllPaths reports that every normal exit passed a completion
	// gate (WaitQueue.Wait) before returning.
	GatesAllPaths bool
	// SNReads are the locally ungated completion-SN reads.
	SNReads []SNRead
	// Calls are the statically resolved call sites, in source order.
	Calls []CallSite
	// Charges bounds, per CPU cost-constant field name, how many times a
	// complete execution charges it.
	Charges map[string]MinMax
	// Releases holds canonical param-rooted lock expressions (see
	// canonLock) released on every normal exit, deferred unlocks
	// included.
	Releases map[string]bool
	// Leaks are the locks still held at each exit, sorted by receiver
	// within an exit; none in a lock helper (see lockHelper).
	Leaks []Leak
}

// fingerprint renders the convergence-relevant parts of a summary so the
// SCC fixpoint can detect stabilization.
func (s *Summary) fingerprint() string {
	var b strings.Builder
	keys := make([]int, 0, len(s.BlocksOn))
	for k := range s.BlocksOn {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		b.WriteString("B")
		b.WriteString(strconv.Itoa(k))
	}
	if s.GatesAllPaths {
		b.WriteString("G")
	}
	ck := make([]string, 0, len(s.Charges))
	for k := range s.Charges {
		ck = append(ck, k)
	}
	sort.Strings(ck)
	for _, k := range ck {
		mm := s.Charges[k]
		b.WriteString(k)
		b.WriteString(strconv.Itoa(mm.Min))
		b.WriteString(",")
		b.WriteString(strconv.Itoa(mm.Max))
	}
	rk := make([]string, 0, len(s.Releases))
	for k := range s.Releases {
		rk = append(rk, k)
	}
	sort.Strings(rk)
	b.WriteString(strings.Join(rk, "|"))
	b.WriteString("#")
	b.WriteString(strconv.Itoa(len(s.SNReads)))
	b.WriteString("#")
	b.WriteString(strconv.Itoa(len(s.NilBlocks)))
	return b.String()
}

// computeSummaries runs the walker bottom-up over the SCCs. Inside a
// recursive component the member summaries are iterated to a fixpoint;
// if that does not converge, charge maxima are widened to satMax and one
// closing round is run.
func computeSummaries(mod *ModuleInfo) {
	sccFixpoint(mod, mod.Summaries, emptySummary, mod.summarize, func(scc []*FuncNode) {
		// Widening: recursion kept inflating charge counts. Pin every
		// charged constant's Max to "unbounded" and close with one more
		// round so the widened values propagate inside the SCC.
		for _, n := range scc {
			for k, mm := range mod.Summaries[n.Obj].Charges {
				mod.Summaries[n.Obj].Charges[k] = MinMax{Min: mm.Min, Max: satMax}
			}
		}
		for _, n := range scc {
			next := mod.summarize(n)
			for k, mm := range next.Charges {
				if prev, ok := mod.Summaries[n.Obj].Charges[k]; ok && prev.Max == satMax {
					next.Charges[k] = MinMax{Min: mm.Min, Max: satMax}
				}
			}
			mod.Summaries[n.Obj] = next
		}
	})
}

func emptySummary(n *FuncNode) *Summary {
	return &Summary{
		Node:     n,
		BlocksOn: map[int]string{},
		Charges:  map[string]MinMax{},
		Releases: map[string]bool{},
	}
}

// walkState is the abstract state along one control-flow path. A join
// keeps the facts of both paths: non-nil proofs, gates, releases and
// held locks that hold on each, and the interval union of the charges.
type walkState struct {
	// nonNil holds identifiers proven non-nil at this point.
	nonNil mustSet[bool]
	// gated is true once a completion-gate pass dominates this point.
	gated bool
	// charges bounds the cost constants charged so far on this path.
	charges map[string]MinMax
	// released holds canonical lock expressions released on this path.
	released mustSet[bool]
	// held maps a rendered lock receiver ("ino.Mu") to the Lock call
	// that acquired it, for the locks held on this path.
	held mustSet[token.Pos]
}

func newWalkState() *walkState {
	return &walkState{
		nonNil:   mustSet[bool]{},
		charges:  map[string]MinMax{},
		released: mustSet[bool]{},
		held:     mustSet[token.Pos]{},
	}
}

func (w *walkState) Clone() *walkState {
	return &walkState{
		nonNil:   w.nonNil.Clone(),
		gated:    w.gated,
		charges:  maps.Clone(w.charges),
		released: w.released.Clone(),
		held:     w.held.Clone(),
	}
}

func (w *walkState) Join(o *walkState) *walkState {
	out := &walkState{
		nonNil:   w.nonNil.Join(o.nonNil),
		gated:    w.gated && o.gated,
		charges:  map[string]MinMax{},
		released: w.released.Join(o.released),
		held:     w.held.Join(o.held),
	}
	mergeCharges(out.charges, w.charges, o.charges)
	return out
}

func (w *walkState) Equal(o *walkState) bool {
	return w.gated == o.gated && w.nonNil.Equal(o.nonNil) &&
		maps.Equal(w.charges, o.charges) && w.released.Equal(o.released) &&
		w.held.Equal(o.held)
}

// mergeCharges writes the per-key interval union of a and b into dst
// (missing keys count as charged zero times).
func mergeCharges(dst, a, b map[string]MinMax) {
	for _, k := range sortedKeys(a) {
		dst[k] = a[k].union(orZero(b, k))
	}
	for _, k := range sortedKeys(b) {
		if _, ok := a[k]; !ok {
			dst[k] = b[k].union(MinMax{})
		}
	}
}

func orZero(m map[string]MinMax, k string) MinMax {
	if v, ok := m[k]; ok {
		return v
	}
	return MinMax{}
}

// sumWalker computes one function's summary.
type sumWalker struct {
	mod    *ModuleInfo
	node   *FuncNode
	params map[string]int // ident name -> parameter index (receiver -1)
	sum    *Summary
	// deferRelease collects lock releases scheduled by defer; they apply
	// to every exit recorded after this point.
	deferRelease map[string]bool
	exits        []*walkState
}

func (m *ModuleInfo) summarize(n *FuncNode) *Summary {
	w := &sumWalker{
		mod:          m,
		node:         n,
		params:       map[string]int{},
		sum:          emptySummary(n),
		deferRelease: map[string]bool{},
	}
	if r := n.Decl.Recv; r != nil && len(r.List) == 1 && len(r.List[0].Names) == 1 {
		w.params[r.List[0].Names[0].Name] = -1
	}
	idx := 0
	for _, f := range n.Decl.Type.Params.List {
		if len(f.Names) == 0 {
			idx++
			continue
		}
		for _, name := range f.Names {
			w.params[name.Name] = idx
			idx++
		}
	}
	if st, live := walkFlow(w, n.Decl.Body, newWalkState()); live {
		w.recordExit(st)
		w.recordLeaks(n.Decl.Body.Rbrace, "function end", st)
	}
	w.finish()
	return w.sum
}

func (w *sumWalker) recordExit(st *walkState) {
	ex := st.Clone()
	for k := range w.deferRelease {
		ex.released[k] = true
	}
	w.exits = append(w.exits, ex)
}

// recordLeaks appends the locks st still holds where a path leaves the
// function at pos.
func (w *sumWalker) recordLeaks(pos token.Pos, where string, st *walkState) {
	if lockHelper(w.node.Decl.Name.Name) {
		return
	}
	for _, recv := range sortedKeys(st.held) {
		w.sum.Leaks = append(w.sum.Leaks, Leak{Pos: pos, Where: where, Recv: recv, Locked: st.held[recv]})
	}
}

// finish joins the recorded exits into the function-level summary.
func (w *sumWalker) finish() {
	if len(w.exits) == 0 {
		// Every path panics: no normal completion to constrain.
		return
	}
	ex := w.exits[0]
	for _, o := range w.exits[1:] {
		ex = ex.Join(o)
	}
	w.sum.GatesAllPaths = ex.gated
	w.sum.Charges = ex.charges
	// Only param-rooted releases are meaningful to callers.
	for _, k := range sortedKeys(ex.released) {
		if strings.HasPrefix(k, "§") {
			w.sum.Releases[k] = true
		}
	}
}

func (w *sumWalker) stmt(s ast.Stmt, st *walkState) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		w.scanCalls(s, st)
		w.recordExit(st)
		w.recordLeaks(s.Pos(), "return", st)
	case *ast.DeferStmt:
		w.deferCall(s.Call, st)
	case *ast.GoStmt:
		// A spawned goroutine is a different execution context.
	default:
		w.scanCalls(s, st)
		switch s := s.(type) {
		case *ast.AssignStmt:
			killAssigned(s, st)
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
				w.recordLeaks(s.Pos(), "panic", st)
			}
		}
	}
}

func (w *sumWalker) expr(e ast.Expr, st *walkState) { w.scanCalls(e, st) }

// refine adds the nil-comparison facts of an if condition to each branch.
func (w *sumWalker) refine(cond ast.Expr, then, els *walkState) {
	thenFacts, elseFacts := condFacts(cond)
	for _, id := range thenFacts {
		then.nonNil[id] = true
	}
	for _, id := range elseFacts {
		els.nonNil[id] = true
	}
}

func (w *sumWalker) ends(call *ast.CallExpr) bool { return isPanicCall(call) }

// loop analyses the body against a copy of the state, then widens the
// entry state: anything charged inside the body may repeat (Max ->
// unbounded) or not run at all (Min unchanged), identifiers assigned
// inside lose their non-nil proof, and gate state is not trusted (zero
// iterations pass no gate).
func (w *sumWalker) loop(s ast.Stmt, st *walkState, body func(*walkState) (*walkState, bool)) *walkState {
	if out, live := body(st); live {
		for _, k := range sortedKeys(out.charges) {
			if e := orZero(st.charges, k); out.charges[k].Max > e.Max {
				st.charges[k] = MinMax{Min: e.Min, Max: satMax}
			}
		}
	}
	ast.Inspect(s, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			killAssigned(as, st)
		}
		return true
	})
	return st
}

// killAssigned drops the non-nil proofs of identifiers an assignment
// overwrites.
func killAssigned(as *ast.AssignStmt, st *walkState) {
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			delete(st.nonNil, id.Name)
		}
	}
}

// scanCalls applies every call under n in source order, skipping
// function-literal bodies.
func (w *sumWalker) scanCalls(n ast.Node, st *walkState) {
	eachCall(n, func(c *ast.CallExpr) { w.call(c, st) }, nil)
}

// deferCall applies the exit-time effects of a deferred call: unlocks
// (and callee releases) count on every subsequent exit, and discharge
// the held lock now.
func (w *sumWalker) deferCall(call *ast.CallExpr, st *walkState) {
	if recv, kind := lockCall(call); kind == "unlock" {
		if c := w.canonLock(recv); c != "" {
			w.deferRelease[c] = true
		}
		st.released[recv] = true
		delete(st.held, recv)
		return
	}
	if callee := staticCallee(w.node.Pkg.Info, call); callee != nil {
		if sum := w.mod.SummaryFor(callee); sum != nil {
			for k := range w.substReleases(sum, call) {
				w.deferRelease[k] = true
				delete(st.held, k)
			}
		}
	}
}

// call applies one call expression's effects to the path state and the
// function summary.
func (w *sumWalker) call(call *ast.CallExpr, st *walkState) {
	// Lock protocol: track held locks for Leaks, and releases (and
	// re-acquisitions) of param-rooted locks for the Releases summary.
	if recv, kind := lockCall(call); kind != "" {
		switch kind {
		case "unlock":
			st.released[recv] = true
			delete(st.held, recv)
			if c := w.canonLock(recv); c != "" {
				st.released[c] = true
			}
		case "lock":
			st.held[recv] = call.Pos()
			delete(st.released, recv)
			if c := w.canonLock(recv); c != "" {
				delete(st.released, c)
			}
		}
	}

	// Blocking primitives, matched by method name with the receiver type
	// constrained when type information is available:
	//   x.Park()    — Task releases its core
	//   x.Wait()    — Task busy-polls its core
	//   q.Wait(t)   — WaitQueue gates t on the completion broadcast
	directArg := -2 // callee param index already reported by a direct match
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch {
		case sel.Sel.Name == "Park" && len(call.Args) == 0 && w.typeNamed(sel.X, "Task"):
			w.blocksOn(sel.X, sel.Sel.Name, st)
		case sel.Sel.Name == "Wait" && len(call.Args) == 0 && w.typeNamed(sel.X, "Task"):
			w.blocksOn(sel.X, sel.Sel.Name, st)
		case sel.Sel.Name == "Wait" && len(call.Args) == 1 && w.typeNamed(sel.X, "WaitQueue"):
			w.blocksOn(call.Args[0], exprString(sel.X)+".Wait", st)
			st.gated = true
			directArg = 0
		case sel.Sel.Name == "CompletedSN" && len(call.Args) == 0:
			if !st.gated {
				w.sum.SNReads = append(w.sum.SNReads, SNRead{Pos: call.Pos()})
			}
		case sel.Sel.Name == "Charge" && len(call.Args) >= 2:
			for _, c := range w.chargedConsts(call.Args[1:]) {
				st.charges[c] = orZero(st.charges, c).add(MinMax{1, 1})
			}
		}
	}

	// Interprocedural effects from the callee summary.
	callee := staticCallee(w.node.Pkg.Info, call)
	if callee == nil {
		return
	}
	w.sum.Calls = append(w.sum.Calls, CallSite{Callee: callee, Pos: call.Pos(), Gated: st.gated})
	sum := w.mod.SummaryFor(callee)
	if sum == nil {
		return
	}
	for _, k := range sortedKeys(sum.Charges) {
		st.charges[k] = orZero(st.charges, k).add(sum.Charges[k])
	}
	for k := range w.substReleases(sum, call) {
		st.released[k] = true
		delete(st.held, k)
	}
	if sum.GatesAllPaths {
		st.gated = true
	}
	keys := make([]int, 0, len(sum.BlocksOn))
	for k := range sum.BlocksOn {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, idx := range keys {
		if idx == directArg {
			continue // the protocol match above already reported this arg
		}
		arg := callArg(call, idx)
		if arg == nil {
			continue
		}
		via := callee.Name() + " → " + sum.BlocksOn[idx]
		if isNilIdent(arg) {
			w.sum.NilBlocks = append(w.sum.NilBlocks, NilBlock{Pos: call.Pos(), Via: via})
			continue
		}
		w.blocksOn(arg, via, st)
	}
}

// callArg maps a callee parameter index to the caller-side expression:
// -1 is the method receiver, otherwise the positional argument.
func callArg(call *ast.CallExpr, idx int) ast.Expr {
	if idx == -1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if idx >= 0 && idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// ReleasedLocks maps a callee summary's param-rooted releases into
// caller-side lock expressions at one call site ("§1.Mu" with arg 1
// rendering as "ino" yields "ino.Mu"), sorted for determinism. The
// summary walk discharges these from a caller's held set, which is how
// lockbalance verifies ownership-transfer callees instead of requiring
// an //easyio:allow escape; lockorder reads them too.
func ReleasedLocks(sum *Summary, call *ast.CallExpr) []string {
	if sum == nil || len(sum.Releases) == 0 {
		return nil
	}
	var out []string
	for _, key := range sortedKeys(sum.Releases) {
		idxStr, rest, _ := strings.Cut(strings.TrimPrefix(key, "§"), ".")
		idx, err := strconv.Atoi(idxStr)
		if err != nil {
			continue
		}
		arg := callArg(call, idx)
		if arg == nil {
			continue
		}
		expr := exprString(ast.Unparen(arg))
		if rest != "" {
			expr += "." + rest
		}
		out = append(out, expr)
	}
	return out
}

// blocksOn records that expr flows into a blocking operation: a nil
// literal is an immediate NilBlock finding; an unproven parameter makes
// the whole function block on that parameter.
func (w *sumWalker) blocksOn(expr ast.Expr, via string, st *walkState) {
	expr = ast.Unparen(expr)
	if isNilIdent(expr) {
		w.sum.NilBlocks = append(w.sum.NilBlocks, NilBlock{Pos: expr.Pos(), Via: via})
		return
	}
	id, ok := expr.(*ast.Ident)
	if !ok {
		return
	}
	if st.nonNil[id.Name] {
		return
	}
	idx, isParam := w.params[id.Name]
	if !isParam {
		return
	}
	if _, have := w.sum.BlocksOn[idx]; !have {
		w.sum.BlocksOn[idx] = via
	}
}

// chargedConsts extracts the CPU cost-constant field names referenced by
// a Charge call's cost expression, deduplicated: charging
// MetaAppend + n*MetaAppend/4 models one constant, not two.
func (w *sumWalker) chargedConsts(args []ast.Expr) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range args {
		ast.Inspect(a, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if w.typeNamed(sel.X, "CPU") && !seen[sel.Sel.Name] {
				seen[sel.Sel.Name] = true
				out = append(out, sel.Sel.Name)
			}
			return true
		})
	}
	return out
}

// typeNamed reports whether expr's type (possibly behind pointers) is a
// named type with the given name.
func (w *sumWalker) typeNamed(expr ast.Expr, name string) bool {
	return namedTypeIs(w.node.Pkg.Info.Types[expr].Type, name)
}

// canonLock canonicalizes a rendered lock receiver ("ino.Mu") into a
// parameter-rooted key ("§1.Mu"); non-parameter roots yield "".
func (w *sumWalker) canonLock(recv string) string {
	root, rest, _ := strings.Cut(recv, ".")
	idx, ok := w.params[root]
	if !ok {
		return ""
	}
	key := "§" + strconv.Itoa(idx)
	if rest != "" {
		key += "." + rest
	}
	return key
}

// substReleases maps a callee's releases into this caller's frame, both
// as rendered expressions and re-canonicalized against its own params.
func (w *sumWalker) substReleases(sum *Summary, call *ast.CallExpr) map[string]bool {
	exprs := ReleasedLocks(sum, call)
	if len(exprs) == 0 {
		return nil
	}
	out := map[string]bool{}
	for _, expr := range exprs {
		out[expr] = true
		if c := w.canonLock(expr); c != "" {
			out[c] = true
		}
	}
	return out
}

// condFacts extracts nil-comparison facts from an if condition:
// thenFacts are identifiers non-nil inside the then branch
// (x != nil, possibly conjoined); elseFacts are identifiers non-nil when
// the condition is false (x == nil disjuncts), which also hold after the
// if when the then branch terminates.
func condFacts(cond ast.Expr) (thenFacts, elseFacts []string) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			l, _ := condFacts(e.X)
			r, _ := condFacts(e.Y)
			return append(l, r...), nil
		case token.LOR:
			_, l := condFacts(e.X)
			_, r := condFacts(e.Y)
			return nil, append(l, r...)
		case token.NEQ:
			if id := nilComparand(e); id != "" {
				return []string{id}, nil
			}
		case token.EQL:
			if id := nilComparand(e); id != "" {
				return nil, []string{id}
			}
		}
	}
	return nil, nil
}

// nilComparand returns the identifier compared against nil, or "".
func nilComparand(e *ast.BinaryExpr) string {
	x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
	if isNilIdent(y) {
		if id, ok := x.(*ast.Ident); ok {
			return id.Name
		}
	}
	if isNilIdent(x) {
		if id, ok := y.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
