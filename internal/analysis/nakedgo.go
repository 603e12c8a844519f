package analysis

import "go/ast"

// NakedGo forbids raw goroutines. Inside the simulation the only
// concurrency mechanism is sim.Proc: runtime coroutines (iter.Pull) that
// the engine resumes one at a time in deterministic event order, with no
// go statement of their own. A naked `go` statement races the OS
// scheduler against the virtual clock; internal/sim itself has none. The
// sanctioned launch sites are the three host worker pools (the bench job
// pool, the analysis runner's fanOut, which the parser and BuildModule's
// module-wide passes share, and TypeCheck's loader), each of which confines every engine or package it
// touches to one worker and joins before merging; each carries an
// //easyio:allow nakedgo comment saying so.
var NakedGo = &Analyzer{
	Name: "nakedgo",
	Doc:  "forbid go statements — concurrency must go through sim.Proc",
	Run:  runNakedGo,
}

func runNakedGo(pass *Pass) {
	pass.walkFiles(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "naked goroutine defeats deterministic scheduling; use Engine.NewProc / Runtime.Spawn")
			}
			return true
		})
	})
}
