package main

import (
	"fmt"
	"time"

	"github.com/easyio-sim/easyio/internal/analysis"
)

// vetWorkers bounds easyio-vet's concurrent package analyses, one per CPU
// of the 2-CPU reference host.
const vetWorkers = 2

// vetRep is one cold easyio-vet run over the module, as the CLI makes it
// with -nocache: ParseModule is the set-up, and RunAnalyzersOpts with
// TypeCheck as its EnsureTypes hook is the measured phase. No simulation
// runs here, and no other workload runs the analysis layer.
func vetRep(root string, tr *tracer) (*rep, error) {
	t0 := time.Now()
	pkgs, err := analysis.ParseModule(root)
	if err != nil {
		return nil, err
	}
	r := &rep{setup: time.Since(t0).Seconds()}
	tr.span("vet parse", t0)
	t1 := time.Now()
	res := analysis.RunAnalyzersOpts(pkgs, analysis.All(), analysis.RunOptions{
		Workers:     vetWorkers,
		EnsureTypes: func() { analysis.TypeCheck(pkgs) },
	})
	r.host = time.Since(t1).Seconds()
	tr.span("vet type-check and analyze", t1)

	var typeErrs int
	for _, p := range pkgs {
		typeErrs += len(p.TypeErrors)
		if len(p.TypeErrors) > 0 {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("vet: type error in %s: %v", p.Path, p.TypeErrors[0]))
		}
	}
	for _, d := range res.Diags {
		r.problems = append(r.problems, "vet finding: "+d.String())
	}
	r.attempted = int64(len(pkgs))
	r.completed = r.attempted - r.failed
	r.results = []metric{
		{"packages", float64(len(pkgs)), "count", count},
		{"findings", float64(len(res.Diags)), "count", count},
		{"type_errors", float64(typeErrs), "count", count},
		{"fail_ratio", float64(r.failed) / float64(max(r.attempted, 1)), "ratio", count},
	}
	return r, nil
}

// vetPhases times a cold easyio-vet run one public call at a time, so the
// per-layer record says where vet's wall-clock goes. analyzers_ms is the
// whole RunAnalyzersOpts call, which builds the module view again inside;
// the per-analyzer times are RunResult.AnalyzerMS, summed over workers.
func vetPhases(root string, tr *tracer) ([]metric, error) {
	t0 := time.Now()
	pkgs, err := analysis.ParseModule(root)
	if err != nil {
		return nil, err
	}
	parse := time.Since(t0)
	tr.span("vet parse", t0)

	t1 := time.Now()
	analysis.TypeCheck(pkgs)
	typeCheck := time.Since(t1)
	tr.span("vet type-check", t1)

	t2 := time.Now()
	mod := analysis.BuildModule(pkgs)
	build := time.Since(t2)
	tr.span("vet build module", t2)

	t3 := time.Now()
	res := analysis.RunAnalyzersOpts(pkgs, analysis.All(), analysis.RunOptions{Workers: vetWorkers})
	analyze := time.Since(t3)
	tr.span("vet run analyzers", t3)

	t4 := time.Now()
	analysis.BuildPartition(mod, root)
	partition := time.Since(t4)
	tr.span("vet partition", t4)

	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	out := []metric{
		{"vet.parse_ms", ms(parse), "ms", host},
		{"vet.typecheck_ms", ms(typeCheck), "ms", host},
		{"vet.build_module_ms", ms(build), "ms", host},
		{"vet.analyzers_ms", ms(analyze), "ms", host},
		{"vet.partition_ms", ms(partition), "ms", host},
	}
	for _, a := range analysis.All() {
		// staleallow is judged once over the whole run and never timed.
		if a != analysis.StaleAllow {
			out = append(out, metric{"vet.analyzer." + a.Name + "_ms", res.AnalyzerMS[a.Name], "ms", host})
		}
	}
	return out, nil
}
