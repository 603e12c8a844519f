package analysis

import (
	"sync"
	"sync/atomic"
)

// RunOptions configures the production runner: parallel analysis over
// packages. The zero value reproduces RunAnalyzers exactly (sequential).
type RunOptions struct {
	// Workers bounds concurrent package analyses; <=1 runs sequentially.
	// Output is byte-identical for any worker count: findings are
	// collected per package and globally sorted.
	Workers int
	// EnsureTypes, when non-nil, is called once before BuildModule.
	EnsureTypes func()
}

// RunResult carries the findings plus the runner telemetry BENCH_vet.json
// reports.
type RunResult struct {
	Diags    []Diagnostic
	Packages int
	// Mod is the interprocedural module view the run built; BuildPartition
	// reads it.
	Mod *ModuleInfo
	// AnalyzerMS is wall-clock milliseconds spent per analyzer, summed
	// across every analyzed package; the module-wide analyzers
	// additionally charge their BuildModule pass (ModuleInfo.ms), timed
	// as wall time inside its job, and those jobs run side by side, so
	// their sum can exceed BuildModuleMS.
	AnalyzerMS map[string]float64
	// BuildModuleMS is the wall-clock milliseconds of this run's
	// BuildModule call. It overlaps AnalyzerMS: the module-wide
	// analyzers' passes run inside BuildModule, as parallel jobs, and
	// are charged to both.
	BuildModuleMS float64
	// CallGraphMS and SummariesMS are BuildModule's own work: the call
	// graph with its SCCs, then the effect summaries, timed inside the
	// parallel job that computes them. BuildModuleMS is CallGraphMS plus
	// the wall time of those jobs (summaries, lookup tables and the
	// module-wide passes) and of fencehygiene after them.
	CallGraphMS float64
	SummariesMS float64
}

// RunAnalyzersOpts is the full-featured runner. Semantics match
// RunAnalyzers: every analyzer over every package, //easyio:allow
// filtering, staleallow judged over the whole run, findings sorted by
// position.
func RunAnalyzersOpts(pkgs []*Package, analyzers []*Analyzer, opt RunOptions) *RunResult {
	res := &RunResult{Packages: len(pkgs), AnalyzerMS: map[string]float64{}}
	if opt.EnsureTypes != nil {
		opt.EnsureTypes()
	}
	t0 := nowMS()
	mod := BuildModule(pkgs)
	res.BuildModuleMS = nowMS() - t0
	res.CallGraphMS = mod.callGraphMS
	res.SummariesMS = mod.summariesMS
	res.Mod = mod

	ranStale := false
	var run []*Analyzer
	for _, a := range analyzers {
		if a == StaleAllow {
			// Whole-run analyzer: judged after filtering, below.
			ranStale = true
		} else {
			run = append(run, a)
		}
	}
	// The analyzers are pure functions over the immutable typed ASTs and
	// the precomputed ModuleInfo; each job writes only its own raw[i] and
	// times[i] slots, and fanOut joins before they are read.
	raw := make([][]Diagnostic, len(pkgs))
	times := make([]map[string]float64, len(pkgs))
	fanOut(len(pkgs), opt.Workers, func(i int) {
		times[i] = map[string]float64{}
		raw[i] = analyzePkg(pkgs[i], run, mod, times[i])
	})

	sup := buildSuppressions(pkgs)
	var diags []Diagnostic
	for i, t := range times {
		for name, v := range t {
			res.AnalyzerMS[name] += v
		}
		diags = append(diags, sup.filter(raw[i])...)
	}
	if ranStale {
		diags = append(diags, sup.staleFindings(analyzers)...)
	}
	sortDiags(diags)
	res.Diags = diags
	// The module-wide analyzers' real work happens once in BuildModule;
	// charge each pass to its analyzer so BENCH_vet.json shows where the
	// milliseconds go.
	for name, v := range mod.ms {
		res.AnalyzerMS[name] += v
	}
	return res
}

// analyzePkg runs the analyzers over one package into a private
// diagnostics slice (pre-suppression), accumulating wall-clock
// milliseconds per analyzer into ms (one private map per job).
func analyzePkg(pkg *Package, analyzers []*Analyzer, mod *ModuleInfo, ms map[string]float64) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		t0 := nowMS()
		a.Run(&Pass{Analyzer: a, Pkg: pkg, Mod: mod, diags: &diags})
		ms[a.Name] += nowMS() - t0
	}
	return diags
}

// fanOut calls job(i) for every i in [0, n) on up to workers
// goroutines, the caller's among them, and returns once every call has.
// It is the host worker pool of the analysis runner, of the parser
// (parseDirs) and of BuildModule's module-wide passes: each job writes
// only its own slots, and the join orders those writes before fanOut
// returns.
func fanOut(n, workers int, job func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			job(i)
		}
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() { //easyio:allow nakedgo (host-side index pool of the analysis runner, the parser and BuildModule; each job writes only its own slots of immutable-after-init inputs, and wg.Wait joins before fanOut returns)
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
