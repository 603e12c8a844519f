package analysis

import "sync"

// RunOptions configures the production runner: per-package parallel
// analysis and the content-hash fact cache. The zero value reproduces
// RunAnalyzers exactly (sequential, uncached).
type RunOptions struct {
	// Workers bounds concurrent package analyses; <=1 runs sequentially.
	// Output is byte-identical for any worker count: findings are
	// collected per package and globally sorted by position.
	Workers int
	// Cache, when non-nil, keys each package's post-suppression findings
	// by a content hash of its interprocedural closure; hits skip the
	// analyzers entirely. Global analyzers (Analyzer.Global) get one
	// additional module-wide entry keyed by every package's content.
	Cache *Cache
	// EnsureTypes, when non-nil, is invoked once before any analyzer
	// runs, but only if at least one entry (package or module-wide)
	// missed the cache — the all-hit warm path never pays for type
	// checking.
	EnsureTypes func()
}

// RunResult carries the findings plus the runner telemetry BENCH_vet.json
// reports.
type RunResult struct {
	Diags    []Diagnostic
	Packages int
	// CacheHits/CacheMisses count per-package entries only; the single
	// module-wide global entry is not a package and is excluded so the
	// counters stay comparable across registry changes.
	CacheHits   int
	CacheMisses int
	// Mod is the interprocedural module view, when this run built one (a
	// fully warm cached run does not; BuildPartition callers must build
	// it themselves then).
	Mod *ModuleInfo
	// AnalyzerMS is wall-clock milliseconds spent per analyzer, summed
	// across every analyzed package; the global analyzers additionally
	// charge their BuildModule pass (ModuleInfo.ms).
	// Near-empty on a fully warm cached run (nothing re-analyzed).
	AnalyzerMS map[string]float64
	// BuildModuleMS is the wall-clock milliseconds of this run's
	// BuildModule call; 0 when the run built no module view. It overlaps
	// AnalyzerMS: the global analyzers' passes run inside BuildModule and
	// are charged to both.
	BuildModuleMS float64
}

// RunAnalyzersOpts is the full-featured runner. Semantics match
// RunAnalyzers: every analyzer over every package, //easyio:allow
// filtering, staleallow judged over the whole run, findings sorted by
// position. Suppression filtering stays per-package (allow comments are
// file-scoped), which is what makes cached replay sound: each cache
// entry stores the surviving findings plus the (file, line, analyzer)
// triples its suppressions consumed, so staleallow sees identical usage
// whether a package was analyzed or replayed.
//
// Global analyzers cannot use per-package closure keys — their findings
// (a lock-order cycle, an escape classification) can change when *any*
// package changes, closure member or not. They run once over the whole
// module and cache in a single entry keyed by every package's content
// hash: sound by construction, and any edit re-runs exactly them plus
// the edited closures.
func RunAnalyzersOpts(pkgs []*Package, analyzers []*Analyzer, opt RunOptions) *RunResult {
	res := &RunResult{Packages: len(pkgs), AnalyzerMS: map[string]float64{}}
	ranStale := false
	var perPkg, global []*Analyzer
	for _, a := range analyzers {
		switch {
		case a == StaleAllow:
			// Whole-run analyzer: judged after filtering, below.
			ranStale = true
		case a.Global:
			global = append(global, a)
		default:
			perPkg = append(perPkg, a)
		}
	}
	sup := buildSuppressions(pkgs)

	keys := map[*Package]string{}
	globalKey := ""
	cached := map[*Package][]Diagnostic{}
	var missed []*Package
	if opt.Cache != nil {
		keys, globalKey = cacheKeys(pkgs, analyzers)
		for _, pkg := range pkgs {
			ent, ok := opt.Cache.get(keys[pkg])
			if !ok {
				missed = append(missed, pkg)
				continue
			}
			cached[pkg] = ent.Findings
			for _, u := range ent.Used {
				sup.allows(u.File, u.Line, u.Analyzer)
			}
			res.CacheHits++
		}
	} else {
		missed = pkgs
	}
	res.CacheMisses = len(missed)

	var globalDiags []Diagnostic
	globalHit := false
	if len(global) > 0 && opt.Cache != nil && globalKey != "" {
		if ent, ok := opt.Cache.get(globalKey); ok {
			globalDiags = ent.Findings
			for _, u := range ent.Used {
				sup.allows(u.File, u.Line, u.Analyzer)
			}
			globalHit = true
		}
	}

	var mod *ModuleInfo
	typeClean := true
	if len(missed) > 0 || (len(global) > 0 && !globalHit) {
		if opt.EnsureTypes != nil {
			opt.EnsureTypes()
		}
		for _, pkg := range pkgs {
			if len(pkg.TypeErrors) > 0 {
				typeClean = false
			}
		}
		t0 := nowMS()
		mod = BuildModule(pkgs)
		res.BuildModuleMS = nowMS() - t0
		res.Mod = mod
	}

	fresh := map[*Package][]Diagnostic{}
	if len(missed) > 0 {
		raw := make([][]Diagnostic, len(missed))
		times := make([]map[string]float64, len(missed))
		workers := opt.Workers
		if workers > len(missed) {
			workers = len(missed)
		}
		if workers <= 1 {
			for i, pkg := range missed {
				times[i] = map[string]float64{}
				raw[i] = analyzePkg(pkg, perPkg, mod, times[i])
			}
		} else {
			// The analyzers are pure functions over the immutable typed
			// ASTs and the precomputed ModuleInfo; each job writes only
			// its own raw[i] slot and joins before results are read.
			jobs := make(chan int)
			var wg sync.WaitGroup
			for k := 0; k < workers; k++ {
				wg.Add(1)
				go func() { //easyio:allow nakedgo (host-side analysis worker pool; the typed ASTs and ModuleInfo are immutable-after-init here, each worker writes only its own raw[i] slot, and wg.Wait joins before reads)
					defer wg.Done()
					for i := range jobs {
						times[i] = map[string]float64{}
						raw[i] = analyzePkg(missed[i], perPkg, mod, times[i])
					}
				}()
			}
			for i := range missed {
				jobs <- i
			}
			close(jobs)
			wg.Wait()
		}
		for _, t := range times {
			for name, v := range t {
				res.AnalyzerMS[name] += v
			}
		}
		for i, pkg := range missed {
			kept, used := sup.filterPkg(raw[i])
			fresh[pkg] = kept
			// Only a type-clean run produces trustworthy findings worth
			// replaying; a broken tree is re-analyzed every time.
			if opt.Cache != nil && typeClean && keys[pkg] != "" {
				opt.Cache.put(keys[pkg], cacheEntry{Findings: kept, Used: used})
			}
		}
	}

	if len(global) > 0 && !globalHit {
		// Module-wide passes replay BuildModule's precomputed findings;
		// running them sequentially in package order keeps the raw stream
		// deterministic (it is sorted with everything else below anyway).
		var raw []Diagnostic
		for _, pkg := range pkgs {
			for _, a := range global {
				t0 := nowMS()
				a.Run(&Pass{Analyzer: a, Pkg: pkg, Mod: mod, diags: &raw})
				res.AnalyzerMS[a.Name] += nowMS() - t0
			}
		}
		kept, used := sup.filterPkg(raw)
		globalDiags = kept
		if opt.Cache != nil && typeClean && globalKey != "" {
			opt.Cache.put(globalKey, cacheEntry{Findings: kept, Used: used})
		}
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		if d, ok := cached[pkg]; ok {
			diags = append(diags, d...)
		} else {
			diags = append(diags, fresh[pkg]...)
		}
	}
	diags = append(diags, globalDiags...)
	if ranStale {
		diags = append(diags, sup.staleFindings(analyzers)...)
	}
	sortDiags(diags)
	res.Diags = diags
	// The global analyzers' real work happens once in BuildModule; charge
	// each pass to its analyzer so BENCH_vet.json shows where the
	// milliseconds go.
	if mod != nil {
		for name, v := range mod.ms {
			res.AnalyzerMS[name] += v
		}
	}
	return res
}

// analyzePkg runs the per-package analyzers over one package into a
// private diagnostics slice (pre-suppression), accumulating wall-clock
// milliseconds per analyzer into ms (one private map per worker).
func analyzePkg(pkg *Package, analyzers []*Analyzer, mod *ModuleInfo, ms map[string]float64) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		t0 := nowMS()
		a.Run(&Pass{Analyzer: a, Pkg: pkg, Mod: mod, diags: &diags})
		ms[a.Name] += nowMS() - t0
	}
	return diags
}
