package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockBalance flags functions that acquire a lock (any `x.Lock(...)` /
// `x.RLock(...)` call) and then reach a return, a panic, or the end of
// the function on some path without releasing it (`x.Unlock()`,
// `defer x.Unlock()`, ...). It is a per-function, path-sensitive AST
// walk: branch bodies are analysed with copies of the held-lock set and
// the sets of the non-terminating branches are intersected afterwards,
// so the ~10 manual unlock paths in internal/core/easyio.go and friends
// are each checked individually.
//
// Ownership transfer is verified interprocedurally: a call into a
// summarized callee that provably releases a param-rooted lock on every
// normal path (`return fs.writeNaive(t, ino, ...)` unlocking ino.Mu)
// discharges that lock from the caller's held set, so those sites need
// no //easyio:allow escape. Functions whose name contains "lock"
// (lockPair, ULock.Lock, ...) remain skipped entirely: imbalance is
// their job.
var LockBalance = &Analyzer{
	Name: "lockbalance",
	Doc:  "forbid return/panic paths that leak an acquired lock",
	Run:  runLockBalance,
}

func runLockBalance(pass *Pass) {
	pass.walkFiles(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			if strings.Contains(strings.ToLower(fn.Name.Name), "lock") {
				return true // lock-manipulation helper: imbalance is its job
			}
			lb := &lockBalancer{pass: pass, fnName: fn.Name.Name}
			if held, live := walkFlow(lb, fn.Body, lockSet{}); live {
				lb.reportHeld(fn.Body.Rbrace, held, "function end")
			}
			return true
		})
	})
}

// lockSet maps a receiver expression (rendered as source, e.g. "ino.Mu")
// to the position where it was locked. Joins keep only the locks held on
// both paths: a lock released on either live path counts as released,
// biasing against false positives.
type lockSet = mustSet[token.Pos]

// lockBalancer is lockbalance's transfer for the flow walker: a return or
// panic reports the locks still held, and loop bodies are assumed
// lock-balanced per iteration (exits inside them are still checked).
type lockBalancer struct {
	pass   *Pass
	fnName string
}

func (lb *lockBalancer) stmt(s ast.Stmt, held lockSet) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if isPanicCall(call) {
				lb.reportHeld(s.Pos(), held, "panic")
			}
			lb.call(call, held)
		}
	case *ast.DeferStmt:
		// A deferred unlock (direct, or inside a summarized callee)
		// releases on every exit from here on.
		if recv, kind := lockCall(s.Call); kind == "unlock" {
			delete(held, recv)
		} else {
			lb.applyCallee(s.Call, held)
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			lb.expr(rhs, held)
		}
	case *ast.ReturnStmt:
		// Ownership transfer: `return callee(...)` where the callee
		// releases discharges the lock before the exit is judged.
		for _, res := range s.Results {
			lb.expr(res, held)
		}
		lb.reportHeld(s.Pos(), held, "return")
	}
}

func (lb *lockBalancer) expr(e ast.Expr, held lockSet) {
	if call, ok := e.(*ast.CallExpr); ok {
		lb.call(call, held)
	}
}

func (lb *lockBalancer) refine(ast.Expr, lockSet, lockSet) {}

func (lb *lockBalancer) ends(call *ast.CallExpr) bool { return isPanicCall(call) }

func (lb *lockBalancer) loop(_ ast.Stmt, entry lockSet, body func(lockSet) (lockSet, bool)) lockSet {
	return loopKeep(entry, body)
}

// call applies one call's lock effect: a lock, an unlock, or an
// ownership-transferring callee.
func (lb *lockBalancer) call(call *ast.CallExpr, held lockSet) {
	switch recv, kind := lockCall(call); kind {
	case "lock":
		held[recv] = call.Pos()
	case "unlock":
		delete(held, recv)
	default:
		lb.applyCallee(call, held)
	}
}

func (lb *lockBalancer) reportHeld(pos token.Pos, held lockSet, where string) {
	// Sorted receivers: our own maporder analyzer demands deterministic
	// report order (it caught this exact loop ranging the map directly).
	recvs := make([]string, 0, len(held))
	for recv := range held {
		recvs = append(recvs, recv)
	}
	sort.Strings(recvs)
	for _, recv := range recvs {
		line := lb.pass.Pkg.Fset.Position(held[recv]).Line
		lb.pass.Reportf(pos, "%s: %s locked at line %d is still held at %s", lb.fnName, recv, line, where)
	}
}

// applyCallee discharges locks that a statically-resolved callee provably
// releases on every normal path (ownership transfer). The callee's summary
// reports releases rooted at its parameters; ReleasedLocks substitutes the
// caller's argument expressions so the keys match this walker's lockSet.
func (lb *lockBalancer) applyCallee(call *ast.CallExpr, held lockSet) {
	if len(held) == 0 {
		return
	}
	callee := staticCallee(lb.pass.Pkg.Info, call)
	if callee == nil {
		return
	}
	sum := lb.pass.Mod.SummaryFor(callee)
	if sum == nil {
		return
	}
	for _, recv := range ReleasedLocks(sum, call) {
		delete(held, recv)
	}
}

// lockCall classifies x.Lock(...)/x.RLock(...) as "lock" and
// x.Unlock()/x.RUnlock() as "unlock", returning the rendered receiver.
func lockCall(call *ast.CallExpr) (recv, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = "lock"
	case "Unlock", "RUnlock":
		kind = "unlock"
	default:
		return "", ""
	}
	return exprString(sel.X), kind
}

func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// exprString renders an expression as source text (go/types' formatter,
// which handles arbitrary expressions without a printer round-trip).
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
