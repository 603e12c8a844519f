// Package analysis is a stdlib-only static-analysis framework (go/ast,
// go/parser, go/types) that machine-checks the invariants every result in
// this reproduction rests on: the discrete-event kernel is bit-for-bit
// deterministic, and the two-level locking protocol never leaks a lock
// across an early-return path.
//
// The framework provides a module loader/type-checker (load.go), a
// diagnostic reporter with positions, an //easyio:allow suppression
// mechanism (suppress.go), a summary-based interprocedural layer
// (callgraph.go, summary.go) that propagates per-function effect
// summaries bottom-up over call-graph SCCs, one path-sensitive
// control-flow walker (flow.go) that summaries, typestate, lockorder,
// lockbalance and atomichygiene share, and a registry of analyzers:
//
//	simtime       - no wall-clock time in simulation code (sim.Time only)
//	detrand       - no math/rand or crypto/rand outside internal/rng
//	nakedgo       - no go statements outside the sanctioned host worker
//	              pools (sim.Proc coroutines need none)
//	maporder      - no order-dependent side effects inside map iteration
//	lockbalance   - no return/panic path that leaks an acquired lock
//	              (interprocedural: ownership-transfer callees that
//	              provably release are verified, not suppressed)
//	errcheck-pmem - no discarded errors from the pmem/dma/filesystem layers
//	cbgate        - no completion-SN read without a dominating gate pass
//	chargebalance - syscall-visible ops charge each cost constant exactly once
//	parkcontext   - Park/Gate.Wait only reachable from non-nil uthreads
//	staleallow    - no //easyio:allow comment that suppresses nothing
//	persistorder  - stores reaching a commit point are fenced on all paths
//	fencehygiene  - no redundant fences, no stores leaked unfenced at roots
//	recoverypurity- recovery code reads only crash-surviving state
//	lockorder     - no lock-acquisition cycles, no unordered same-class
//	              lock nesting (module-wide lock-class graph, Tarjan)
//	confinement   - every mutable type reachable from sim/core/service is
//	              node-confined, a router message, immutable-after-init,
//	              or shared-guarded — never unguarded shared state
//	atomichygiene - no mixed atomic/plain field access, no plain access
//	              to mutex-guarded fields outside the lock
//	noalloc       - no heap allocation reachable from an //easyio:hotpath
//	              root (per-function may-allocate summaries, bottom-up;
//	              //easyio:coldpath and error/crash paths discharge)
//	boxing        - no interface boxing or fmt-family call reachable from
//	              a hot root, even when amortized
//	hotpathcover  - required hot roots are annotated; every hotpath and
//	              coldpath annotation is live (staleallow for perf)
//	svclifecycle  - service.Server lifecycle automaton (New -> StartArrivals
//	              -> StartManager -> Inject* -> End -> Finish)
//	horizonproto  - cluster protocol (topology before Run, Send only
//	              from event context, no Send after Shutdown)
//	epochbudget   - channel-manager epoch budget (RegisterLApp before
//	              Start, Report only while running, Stop once)
//	handlestate   - fsapi/nova handles: Open -> use -> Close, no
//	              use-after-close, close on all paths
//
// svclifecycle/horizonproto/epochbudget/handlestate/parityepoch/
// persistorder are declarative specs on the typestate protocol engine
// (typestate.go, protocols.go): lifecycle automata declared as data,
// checked by per-path abstract interpretation with per-function
// ProtocolSummary facts propagated bottom-up over the call-graph SCCs;
// findings carry the concrete state trace. fencehygiene is a second
// reporter on the persistorder result: redundant fences and pending
// stores left at call-graph roots.
//
// lockorder/confinement/atomichygiene are *global* analyzers
// (Analyzer.Global): their findings are a property of the whole module,
// precomputed once in BuildModule and replayed per package; the runner
// caches them in a single module-wide entry (see runner.go) and they
// feed the committable partition report (partition.go).
//
// cmd/easyio-vet is the CLI driver; it exits nonzero on findings, so CI
// gates every PR on these invariants. runner.go adds per-package
// parallel execution and a content-hash keyed fact cache for incremental
// runs; both preserve byte-identical findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Trace is the concrete protocol state trace leading to a typestate
	// finding (empty for other analyzers); the CLI renders it as a
	// SARIF relatedLocations chain.
	Trace []TraceStep
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the registry key, also used in //easyio:allow comments.
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
	// Global marks a module-wide analyzer: its findings depend on every
	// package, so the runner caches them in one module-keyed entry
	// instead of per-package closure-keyed entries.
	Global bool
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Mod is the module-wide interprocedural view (call graph and effect
	// summaries), shared by every pass of one RunAnalyzers invocation.
	Mod   *ModuleInfo
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportTrace records a finding with an attached protocol state trace.
func (p *Pass) reportTrace(pos token.Pos, msg string, trace []TraceStep) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  msg,
		Trace:    trace,
	})
}

// All returns the full analyzer registry in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Simtime, Detrand, NakedGo, MapOrder, LockBalance, ErrcheckPmem,
		CBGate, ChargeBalance, ParkContext, StaleAllow,
		PersistOrder, FenceHygiene, RecoveryPurity,
		LockOrder, Confinement, AtomicHygiene,
		NoAlloc, Boxing, HotPathCover,
		SvcLifecycle, HorizonProto, EpochBudget, HandleState, ParityEpoch,
	}
}

// ByName resolves registry names; unknown names are an error.
func ByName(names []string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
	}
	return out, nil
}

// RunAnalyzers applies each analyzer to each package and returns the
// findings that survive //easyio:allow suppression, sorted by position.
// It is the sequential, uncached entry point; see runner.go for the
// parallel and incremental variants.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunAnalyzersOpts(pkgs, analyzers, RunOptions{}).Diags
}

// sortDiags orders findings by (file, line, column, analyzer) — the
// stable order every runner variant must produce.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// walkFiles applies fn to every file of the pass's package.
func (p *Pass) walkFiles(fn func(*ast.File)) {
	for _, f := range p.Pkg.Files {
		fn(f)
	}
}
