package analysis

// ParkContext statically rules out the nil-task panics the runtime
// invariants probe for: caladan.Park / Task.Wait / WaitQueue.Wait must
// be reachable only from non-nil uthread contexts. The summary layer
// tracks which parameters flow unguarded into a blocking operation
// (transitively, through the call graph) and which call sites pass a nil
// literal into such a parameter. Findings:
//
//   - a nil literal handed to a blocking parameter — always wrong: the
//     callee would park a task that does not exist;
//   - a FileSystem entry point whose *Task parameter reaches a blocking
//     operation with no nil guard — entries document "nil task means
//     functional-only", so the blocking path must be fenced off by an
//     explicit t == nil branch (or a fail-fast panic, the ULock idiom).
var ParkContext = &Analyzer{
	Name: "parkcontext",
	Doc:  "Park/Gate.Wait reachable only from non-nil uthread contexts",
	Run:  runParkContext,
}

func runParkContext(pass *Pass) {
	mod := pass.Mod
	for _, n := range mod.NodesOf(pass.Pkg) {
		sum := mod.SummaryFor(n.Obj)
		if sum == nil {
			continue
		}
		for _, nb := range sum.NilBlocks {
			pass.Reportf(nb.Pos, "%s passes a nil task into a blocking operation (%s); blocking needs a live uthread", n.Decl.Name.Name, nb.Via)
		}
		idx, ok := mod.IsFSEntry(n)
		if !ok {
			continue
		}
		if via, blocked := sum.BlocksOn[idx]; blocked {
			pass.Reportf(n.Decl.Name.Pos(), "entry %s: a nil (functional-context) task can reach a blocking operation (%s); guard t == nil before parking", n.Decl.Name.Name, via)
		}
	}
}
