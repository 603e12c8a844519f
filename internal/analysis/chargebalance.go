package analysis

// ChargeBalance keeps the Fig 1/8 CPU accounting honest: every
// syscall-visible operation (a method implementing a FileSystem
// interface name with a *Task parameter) must charge cpu.Syscall on
// every completing path, and no modeled cost constant may be charged
// twice on all paths. Charge counts are interprocedural: the summary
// layer folds callee charges (PrepareWrite's IndexBase, writeLocked's
// MetaAppend, ...) into each entry's per-constant [min, max] bounds, so
// a forgotten or doubled charge shows up at the entry that skews the
// reproduction's numbers.
//
// Intentional asymmetries stay silent by construction: writeNaive's
// second kernel interaction raises Syscall's max to 2 without lifting
// the min, and a constant charged once per loop iteration widens only
// the max.
var ChargeBalance = &Analyzer{
	Name: "chargebalance",
	Doc:  "syscall-visible ops charge each modeled CPU cost constant exactly once",
	Run:  runChargeBalance,
}

func runChargeBalance(pass *Pass) {
	mod := pass.Mod
	for _, n := range mod.NodesOf(pass.Pkg) {
		if _, ok := mod.IsFSEntry(n); !ok {
			continue
		}
		sum := mod.SummaryFor(n.Obj)
		if sum == nil {
			continue
		}
		name := n.Decl.Name.Name
		sys := orZero(sum.Charges, "Syscall")
		switch {
		case sys.Max == 0:
			pass.Reportf(n.Decl.Name.Pos(), "syscall-visible op %s never charges cpu.Syscall (Fig 1/8 CPU accounting undercounts it)", name)
		case sys.Min == 0:
			pass.Reportf(n.Decl.Name.Pos(), "op %s charges cpu.Syscall only on some paths; every completing path must charge it", name)
		}
		for _, k := range sortedKeys(sum.Charges) {
			if mm := sum.Charges[k]; mm.Min >= 2 {
				pass.Reportf(n.Decl.Name.Pos(), "op %s charges cpu.%s at least %d times on every path (double charge skews the perf model)", name, k, mm.Min)
			}
		}
	}
}
