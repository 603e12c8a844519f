package analysis

import "strings"

// CBGate enforces the §4.2 orderless-durability protocol: a DMA
// completion SN (Channel.CompletedSN / WQ.CompletedSN) is a volatile
// observation and must not be trusted unless a completion-gate pass
// (WaitQueue.Wait) dominates the read — either locally, or in every
// calling context reaching the function (summary propagation over the
// call graph). DurableSN is exempt: it reads the *persistent* completion
// buffer, which is exactly the crash-safe witness recovery validates
// against.
//
// internal/dma itself implements the completion buffer and is exempt,
// the same way internal/rng is exempt from detrand.
var CBGate = &Analyzer{
	Name: "cbgate",
	Doc:  "forbid reading a DMA completion SN without a dominating gate pass",
	Run:  runCBGate,
}

func runCBGate(pass *Pass) {
	mod := pass.Mod
	if strings.HasSuffix(pass.Pkg.Path, "internal/dma") {
		return // the package that implements the completion buffer
	}
	for _, n := range mod.NodesOf(pass.Pkg) {
		sum := mod.SummaryFor(n.Obj)
		if sum == nil || len(sum.SNReads) == 0 || mod.gated[n] {
			continue
		}
		for _, r := range sum.SNReads {
			pass.Reportf(r.Pos, "%s reads a volatile completion SN without a dominating gate pass (§4.2: gate on WaitQueue.Wait, or validate against DurableSN)", n.Decl.Name.Name)
		}
	}
}
