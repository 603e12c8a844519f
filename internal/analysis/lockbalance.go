package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockBalance flags functions that acquire a lock (any `x.Lock(...)` /
// `x.RLock(...)` call) and then reach a return, a panic, or the end of
// the function on some path without releasing it (`x.Unlock()`,
// `defer x.Unlock()`, ...). The effect-summary walk (summary.go) keeps
// the must-held set along every path and records the locks still held at
// each exit as Summary.Leaks; this analyzer reports them. Branch states
// are intersected at joins, so a lock released on either path counts as
// released, and the ~10 manual unlock paths in internal/core/easyio.go
// and friends are each checked individually.
//
// Ownership transfer is verified interprocedurally: a call into a
// summarized callee that provably releases a param-rooted lock on every
// normal path (`return fs.writeNaive(t, ino, ...)` unlocking ino.Mu)
// discharges that lock from the caller's held set, so those sites need
// no //easyio:allow escape. Lock helpers (see lockHelper) record no
// leaks: imbalance is their job.
var LockBalance = &Analyzer{
	Name: "lockbalance",
	Doc:  "forbid return/panic paths that leak an acquired lock",
	Run:  runLockBalance,
}

func runLockBalance(pass *Pass) {
	mod := pass.Mod
	for _, n := range mod.NodesOf(pass.Pkg) {
		for _, l := range mod.Summaries[n.Obj].Leaks {
			line := pass.Pkg.Fset.Position(l.Locked).Line
			pass.Reportf(l.Pos, "%s: %s locked at line %d is still held at %s", n.Decl.Name.Name, l.Recv, line, l.Where)
		}
	}
}

// lockHelper reports whether a function named name is a lock helper
// (lockPair, ULock.Lock, ...): lockbalance records no leaks in one, and
// lockorder lets one nest two locks of a class, because imbalance and
// ordered acquisition are its job.
func lockHelper(name string) bool {
	return strings.Contains(strings.ToLower(name), "lock")
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
