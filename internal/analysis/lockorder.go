package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder certifies that the module's lock acquisitions admit a global
// order. Every lock receiver is canonicalized into a lock *class* — a
// struct field like nova.Inode.Mu is one class no matter the instance, a
// package-level mutex is its own class, a function-local mutex is a
// class private to that function — and the analyzer records an edge
// A → B whenever a path acquires an instance of B while holding an
// instance of A, either directly or through a statically resolved callee
// (per-function may-acquire summaries are propagated bottom-up over the
// call-graph SCCs, so transitive acquisition chains produce edges too).
// Tarjan cycle detection over the class graph turns any potential
// deadlock cycle into a build failure with the full acquisition cycle
// printed.
//
// Nesting two instances of the *same* class has no class-level order, so
// it is reported at the acquisition site unless the enclosing function is
// a lock helper (see lockHelper; ordered-acquisition helpers like nova's
// lockPair, which orders by inode number, are exactly the sanctioned way
// to do this). Callees that provably release a held lock on every normal
// path (Summary.Releases, through ReleasedLocks) discharge it from the
// held set first, so unlock-then-relock callees are not misread as
// nesting.
//
// LockOrder is a module-wide analyzer: its findings are a property of
// the whole module, precomputed by BuildModule and replayed into the
// package that owns each position.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "forbid lock-acquisition cycles and unordered same-class lock nesting",
	Run:  runModule,
}

// lockEdge records "an instance of From was held while an instance of To
// was acquired" with the first acquisition site as evidence.
type lockEdge struct {
	From, To string
	Pos      token.Pos
	Pkg      *Package
}

// lockFacts is the per-function acquisition summary.
type lockFacts struct {
	// direct holds the classes this function's own body may acquire
	// (goroutine bodies excluded: they run in a different frame).
	direct map[string]bool
	// acquires adds the transitive may-acquire closure over callees.
	acquires map[string]bool
}

// moduleLocks is the module-wide lock-order view BuildModule computes.
type moduleLocks struct {
	facts    map[*types.Func]*lockFacts
	classes  []string
	edges    []lockEdge
	edgeSeen map[[2]string]bool
	nests    []modDiag
	cycles   [][]string
	acyclic  bool
}

// computeLockOrder runs both phases: the bottom-up may-acquire fixpoint,
// then the held-set collection walk that emits edges and findings, then
// cycle detection over the class graph.
func computeLockOrder(mod *ModuleInfo, out *passOut) {
	ml := &moduleLocks{
		facts:    map[*types.Func]*lockFacts{},
		edgeSeen: map[[2]string]bool{},
		acyclic:  true,
	}
	mod.locks = ml

	// Phase 1: may-acquire facts, bottom-up so callee facts exist when a
	// caller unions them in; recursive SCCs iterate to a fixpoint (the
	// union is monotone over a finite class set, so it converges).
	for _, scc := range mod.SCCs {
		for _, n := range scc {
			d := directLocks(n)
			ml.facts[n.Obj] = &lockFacts{direct: d, acquires: map[string]bool{}}
			for c := range d {
				ml.facts[n.Obj].acquires[c] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				f := ml.facts[n.Obj]
				for _, c := range n.Callees {
					cf := ml.facts[c.Obj]
					if cf == nil {
						continue
					}
					for k := range cf.acquires {
						if !f.acquires[k] {
							f.acquires[k] = true
							changed = true
						}
					}
				}
			}
		}
	}

	classSet := map[string]bool{}
	for _, n := range mod.Nodes {
		for k := range ml.facts[n.Obj].direct {
			classSet[k] = true
		}
	}
	ml.classes = sortedKeys(classSet)

	// Phase 2: walk every function with may-held tracking.
	for _, n := range mod.Nodes {
		w := &lockWalker{
			mod:      mod,
			out:      out,
			ml:       ml,
			node:     n,
			lockName: lockHelper(n.Decl.Name.Name),
		}
		walkFlow(w, n.Decl.Body, heldSet{})
		// Function literals run in their own frame (deferred, spawned, or
		// stored behind a variable): walk each with an empty held set so
		// their internal acquisition order still feeds the graph.
		for _, lit := range n.lits {
			walkFlow(w, lit.Body, heldSet{})
		}
	}

	lockCycleScan(ml, out)
}

// directLocks collects the classes a function body may acquire directly.
// Goroutine bodies are skipped (their acquisitions happen on a different
// frame and never nest under the spawner's held set).
func directLocks(n *FuncNode) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.GoStmt); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, kind := lockCall(call); kind == "lock" {
			out[lockClass(n, lockRecv(call))] = true
		}
		return true
	})
	return out
}

// lockRecv returns the receiver expression of a call lockCall classified.
func lockRecv(call *ast.CallExpr) ast.Expr {
	return call.Fun.(*ast.SelectorExpr).X
}

// lockClass canonicalizes a lock receiver into its module-wide class: a
// struct field becomes "pkg.Type.field" (every instance of that field is
// one class), a package-level var "pkg.name", and a function-local var
// "pkg.Func#name" (each function's locals are private classes). Any
// other receiver falls back to its rendered expression, scoped to the
// package.
func lockClass(n *FuncNode, e ast.Expr) string {
	info := n.Pkg.Info
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if named := derefNamed(info.Types[e.X].Type); named != nil && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
		}
		// Qualified package-level var: pkg.mu.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if obj := info.Uses[e.Sel]; obj != nil && obj.Pkg() != nil {
					return obj.Pkg().Path() + "." + obj.Name()
				}
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			return v.Pkg().Path() + "." + n.Decl.Name.Name + "#" + v.Name()
		}
	}
	return n.Pkg.Path + "#" + exprString(e)
}

// heldLock is one may-held acquisition: the class and where it happened.
type heldLock struct {
	class string
	pos   token.Pos
}

// heldSet maps a rendered receiver ("ino.Mu") to its acquisition. Joins
// keep locks held on either path: may-held biases toward seeing every
// possible nesting (the opposite of the summary walk's must-held
// walkState.held, which biases lockbalance against leak false positives).
type heldSet = maySet[heldLock]

// lockWalker is lockorder's transfer for the flow walker: it tracks the
// may-held set along one function body and emits order edges and nesting
// findings into the module collector. A loop joins its body's held set
// into the entry set once.
type lockWalker struct {
	mod      *ModuleInfo
	out      *passOut
	ml       *moduleLocks
	node     *FuncNode
	lockName bool // a lock helper (see lockHelper): sanctioned ordering helper
}

func (w *lockWalker) stmt(s ast.Stmt, held heldSet) {
	switch s := s.(type) {
	case *ast.DeferStmt:
		// A deferred unlock releases only at function exit: for order
		// purposes the lock stays held through the rest of the body. Any
		// other deferred call is judged against the current held set (an
		// approximation: it actually runs at exit).
		if _, kind := lockCall(s.Call); kind != "unlock" {
			w.scan(s.Call, held)
		}
	case *ast.GoStmt:
		// The goroutine starts with an empty held set; its body is walked
		// separately as a function literal (or as its own FuncNode).
	default:
		w.scan(s, held)
	}
}

func (w *lockWalker) expr(e ast.Expr, held heldSet) { w.scan(e, held) }

func (w *lockWalker) refine(ast.Expr, heldSet, heldSet) {}

func (w *lockWalker) ends(call *ast.CallExpr) bool { return isPanicCall(call) }

func (w *lockWalker) loop(_ ast.Stmt, entry heldSet, body func(heldSet) (heldSet, bool)) heldSet {
	return loopJoin(entry, body, 1)
}

// scan visits the call expressions under n in source order (skipping
// function literals, which run in their own frame) and applies each
// call's lock effects to the held set.
func (w *lockWalker) scan(n ast.Node, held heldSet) {
	eachCall(n, func(c *ast.CallExpr) { w.call(c, held) }, nil)
}

func (w *lockWalker) call(call *ast.CallExpr, held heldSet) {
	if recv, kind := lockCall(call); kind != "" {
		switch kind {
		case "lock":
			w.acquire(call, recv, held)
		case "unlock":
			delete(held, recv)
		}
		return
	}
	callee := staticCallee(w.node.Pkg.Info, call)
	if callee == nil {
		return
	}
	sum := w.mod.SummaryFor(callee)
	if f := w.ml.facts[callee]; f != nil && len(held) > 0 && len(f.acquires) > 0 {
		// Locks the callee provably releases on every normal path
		// (ownership transfer) are discharged before judging: an
		// unlock-then-relock callee is a release, not a nesting.
		released := map[string]bool{}
		if sum != nil {
			for _, r := range ReleasedLocks(sum, call) {
				released[r] = true
			}
		}
		calleeLockName := lockHelper(callee.Name())
		for _, r := range sortedKeys(held) {
			if released[r] {
				continue
			}
			h := held[r]
			for _, c := range sortedKeys(f.acquires) {
				if c != h.class {
					w.edge(h.class, c, call.Pos())
				} else if f.direct[c] && !w.lockName && !calleeLockName {
					w.out.report("lockorder", modDiag{
						Pkg: w.node.Pkg,
						Pos: call.Pos(),
						Msg: fmt.Sprintf("%s: call to %s may acquire another %s while %s (same lock class) is held; order the acquisitions in one helper or //easyio:allow lockorder with a hierarchy rationale",
							w.node.Decl.Name.Name, callee.Name(), c, r),
					})
				}
			}
		}
	}
	if sum != nil {
		for _, r := range ReleasedLocks(sum, call) {
			delete(held, r)
		}
	}
}

// acquire judges one direct lock acquisition against the held set, then
// adds it.
func (w *lockWalker) acquire(call *ast.CallExpr, recv string, held heldSet) {
	class := lockClass(w.node, lockRecv(call))
	for _, r := range sortedKeys(held) {
		h := held[r]
		switch {
		case h.class != class:
			w.edge(h.class, class, call.Pos())
		case r == recv:
			if !w.lockName {
				w.out.report("lockorder", modDiag{
					Pkg: w.node.Pkg,
					Pos: call.Pos(),
					Msg: fmt.Sprintf("%s: %s (lock class %s) is re-locked while already held — self-deadlock", w.node.Decl.Name.Name, recv, class),
				})
			}
		default:
			if !w.lockName {
				d := modDiag{
					Pkg: w.node.Pkg,
					Pos: call.Pos(),
					Msg: fmt.Sprintf("%s: %s acquired while %s (same lock class %s) is held with no class-level order; use an ordered-acquisition helper (lockPair-style) or //easyio:allow lockorder with a hierarchy rationale",
						w.node.Decl.Name.Name, recv, r, class),
				}
				w.out.report("lockorder", d)
				w.ml.nests = append(w.ml.nests, d)
			}
		}
	}
	held[recv] = heldLock{class: class, pos: call.Pos()}
}

// edge records a distinct-class acquisition edge, first evidence wins.
func (w *lockWalker) edge(from, to string, pos token.Pos) {
	key := [2]string{from, to}
	if w.ml.edgeSeen[key] {
		return
	}
	w.ml.edgeSeen[key] = true
	w.ml.edges = append(w.ml.edges, lockEdge{From: from, To: to, Pos: pos, Pkg: w.node.Pkg})
}

// lockCycleScan runs tarjan over the class graph and reports every
// strongly connected component of more than one class as a deadlock
// cycle, anchored at its first recorded edge with the full acquisition
// cycle (and each edge's evidence site) in the message.
func lockCycleScan(ml *moduleLocks, out *passOut) {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for _, e := range ml.edges {
		adj[e.From] = append(adj[e.From], e.To)
		nodes[e.From] = true
		nodes[e.To] = true
	}
	order := sortedKeys(nodes)
	for _, k := range order {
		sort.Strings(adj[k])
	}
	for _, scc := range tarjan(order, func(v string) []string { return adj[v] }) {
		if len(scc) < 2 {
			continue // distinct-class edges cannot self-loop
		}
		ml.acyclic = false
		cycle := cyclePath(scc, adj)
		ml.cycles = append(ml.cycles, cycle)
		var b strings.Builder
		b.WriteString("lock-order cycle: ")
		var anchor *lockEdge
		for i := 0; i+1 < len(cycle); i++ {
			e := findEdge(ml, cycle[i], cycle[i+1])
			if i == 0 {
				b.WriteString(cycle[i])
				anchor = e
			}
			b.WriteString(" → ")
			b.WriteString(cycle[i+1])
			if e != nil {
				p := e.Pkg.Fset.Position(e.Pos)
				fmt.Fprintf(&b, " (acquired at %s:%d)", filepath.Base(p.Filename), p.Line)
			}
		}
		if anchor != nil {
			out.report("lockorder", modDiag{Pkg: anchor.Pkg, Pos: anchor.Pos, Msg: b.String()})
		}
	}
}

// cyclePath finds a concrete cycle through an SCC's lexicographically
// first member, e.g. [A B A], following only in-SCC edges.
func cyclePath(scc []string, adj map[string][]string) []string {
	in := map[string]bool{}
	for _, v := range scc {
		in[v] = true
	}
	sorted := append([]string(nil), scc...)
	sort.Strings(sorted)
	start := sorted[0]
	path := []string{start}
	visited := map[string]bool{}
	cur := start
	for {
		advanced := false
		for _, u := range adj[cur] {
			if u == start {
				return append(path, start)
			}
			if in[u] && !visited[u] {
				visited[u] = true
				path = append(path, u)
				cur = u
				advanced = true
				break
			}
		}
		if !advanced {
			// Dead-ended inside the SCC (shouldn't happen in a strongly
			// connected component); report what we walked.
			return append(path, start)
		}
	}
}

func findEdge(ml *moduleLocks, from, to string) *lockEdge {
	for i := range ml.edges {
		if ml.edges[i].From == from && ml.edges[i].To == to {
			return &ml.edges[i]
		}
	}
	return nil
}
