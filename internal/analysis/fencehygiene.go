package analysis

// FenceHygiene checks the two failure modes around Device.Fence that the
// persistorder protocol check cannot see:
//
//   - Redundant fences: a Fence executed when the device is provably
//     clean on every path (a fence already ran and nothing stored
//     since). Fences cost real time in the performance model (the paper
//     charges them on the critical path), so a back-to-back fence is a
//     measurable regression, not just noise.
//
//   - Leaked stores: a persistent store that can exit its function
//     unfenced, where the function is a call-graph root — so no caller
//     exists that could fence it. Non-root functions legitimately defer
//     fencing to their callers (the writeSlot/AppendEntries idiom); the
//     pending set propagates up the summaries and is judged where the
//     buck stops. Methods implementing a module interface are exempt:
//     their callers dispatch dynamically (the DataMover pattern), so the
//     static graph cannot see who fences after them.
//
// Both read the persistorder protocol's engine result (persistorder.go):
// a redundant fence is a Fence taken when the only possible state is
// "fenced", and a leak is a root's exit trace. internal/pmem is exempt
// through that protocol's ExemptPkgs.
var FenceHygiene = &Analyzer{
	Name: "fencehygiene",
	Doc:  "no redundant back-to-back fences, no stores left unfenced at call-graph roots",
	Run:  runFenceHygiene,
}

func runFenceHygiene(pass *Pass) {
	if pass.Mod == nil {
		return
	}
	res := pass.Mod.protocolResult(persistProtocol.Name)
	redundant := func(sum *ProtocolSummary) {
		for _, pos := range sum.redundant {
			pass.Reportf(pos, "redundant Device.Fence: the device is already clean on every path here (no persistent store since the previous fence); delete it — fences are charged on the critical path")
		}
	}
	iface := pass.Mod.interfaceMethodNames()
	for _, n := range pass.Mod.NodesOf(pass.Pkg) {
		sum := res.sums[n.Obj]
		redundant(sum)
		// Leak check: only judged at roots the static graph can close
		// over — no callers, and not an interface-implementing method.
		if len(n.Callers) > 0 || len(sum.exitTrace) == 0 {
			continue
		}
		if n.Decl.Recv != nil && iface[n.Decl.Name.Name] {
			continue
		}
		first := sum.exitTrace[0]
		fp := pass.Pkg.Fset.Position(first.pos)
		pass.Reportf(first.pos,
			"persistent store %s (%s:%d) can exit %s unfenced, and no caller exists to fence it; the store may never become durable",
			first.desc, shortFile(fp.Filename), fp.Line, n.Decl.Name.Name)
	}
	for _, sum := range res.lits {
		if sum.node.Pkg == pass.Pkg {
			redundant(sum)
		}
	}
}
