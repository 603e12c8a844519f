// Command easyio-bench regenerates every table and figure of the EasyIO
// paper's evaluation on the simulated testbed, and runs the multi-tenant
// serving sweep.
//
// Usage:
//
//	easyio-bench -exp all            # everything but serve (minutes)
//	easyio-bench -exp fig9 -quick    # one figure, short windows
//	easyio-bench -exp fig2,fig3,table2
//	easyio-bench -exp table2 -crashpoints 40   # Table 2, 40 crash states per workload
//	easyio-bench -exp all -benchjson BENCH_sim.json
//	easyio-bench -exp serve -servejson BENCH_serve.json
//	GOMAXPROCS=8 easyio-bench -exp all   # eight sweep points at once
//	easyio-bench -exp fig9 -quick -cpuprofile fig9.prof  # go tool pprof fig9.prof
//
// Experiments: table1 fig1 fig2 fig3 fig4 fig8 fig9 fig10 fig11 fig12
// ablations table2 (together: all) and serve. Table 2 is the
// CrashMonkey-style crash-consistency suite; the run exits 1 if any crash
// state fails. serve is the open-loop serving experiment (Poisson, burst
// and diurnal tenants swept across offered load once per admission
// policy, plus a million-request capacity cell that -quick skips); it is
// not part of all. An unknown experiment name exits 2.
//
// Independent sweep points (Figure 9's 184 cells among them) fan out
// across GOMAXPROCS goroutines (bench.SimWorkers); the output is
// byte-identical for any GOMAXPROCS (each sweep point is its own virtual
// machine, and results are printed in sweep order).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/sim"
)

// experiment is one named result; all runs those with inAll set, in
// table order.
type experiment struct {
	name  string
	inAll bool
	run   func()
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments (table1, fig1..fig12, ablations, table2, all, serve)")
	quick := flag.Bool("quick", false, "short measurement windows, skip serve's million-request cell (smoke test)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	points := flag.Int("crashpoints", 1000, "crash states per Table 2 workload")
	benchjson := flag.String("benchjson", "", "write kernel perf + per-experiment wall-clock and allocation JSON to this file")
	servejson := flag.String("servejson", "", "write the serve experiment's report JSON to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the whole run to this file")
	flag.Parse()

	measure := 20 * sim.Millisecond
	raw := 10 * sim.Millisecond
	appMeasure := 120 * sim.Millisecond
	serveMeasure, million := 20*sim.Millisecond, true
	if *quick {
		measure = 4 * sim.Millisecond
		raw = 3 * sim.Millisecond
		appMeasure = 30 * sim.Millisecond
		serveMeasure, million = 5*sim.Millisecond, false
		if *points > 100 {
			*points = 100
		}
	}

	ok := true
	exps := []experiment{
		{"table1", true, func() { bench.Table1(os.Stdout) }},
		{"fig1", true, func() { bench.Fig1(os.Stdout) }},
		{"fig2", true, func() { bench.Fig2(os.Stdout, raw) }},
		{"fig3", true, func() { bench.Fig3(os.Stdout, raw) }},
		{"fig4", true, func() { bench.Fig4(os.Stdout, raw) }},
		{"fig8", true, func() { bench.Fig8(os.Stdout) }},
		{"fig9", true, func() { bench.Fig9(os.Stdout, measure, *seed) }},
		{"fig10", true, func() { bench.Fig10(os.Stdout, appMeasure, *seed) }},
		{"fig11", true, func() { bench.Fig11(os.Stdout, measure, *seed) }},
		{"fig12", true, func() { bench.Fig12(os.Stdout, 6*sim.Millisecond, *seed) }},
		{"ablations", true, func() {
			bench.AblationDSAMode(os.Stdout, 4*sim.Millisecond, *seed)
			bench.AblationPollCost(os.Stdout, measure, *seed)
			bench.AblationOffloadThreshold(os.Stdout)
		}},
		{"table2", true, func() { ok = bench.Table2(os.Stdout, *points, *seed) && ok }},
		{"serve", false, func() {
			report := bench.Serve(os.Stdout, serveMeasure, *seed, million)
			if *servejson != "" {
				writeJSON(*servejson, report.WriteJSON)
			}
		}},
	}
	want, err := selectExperiments(*exp, exps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stopProfile, err := bench.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report := &bench.Report{Workers: bench.SimWorkers, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, e := range exps {
		if !want[e.name] {
			continue
		}
		fmt.Printf("==== %s ====\n", e.name)
		a0, b0 := bench.HeapAllocs()
		start := time.Now()
		e.run()
		wall := time.Since(start)
		a1, b1 := bench.HeapAllocs()
		report.Experiments = append(report.Experiments, bench.ExperimentTiming{
			Name:       e.name,
			WallMS:     float64(wall.Microseconds()) / 1000,
			Allocs:     a1 - a0,
			AllocBytes: b1 - b0,
		})
	}

	if *benchjson != "" {
		report.Kernel = bench.MeasureKernelPerf()
		report.Fig9Scaling, report.Fig9Speedup4W = bench.MeasureFig9Scaling(measure, *seed)
		writeJSON(*benchjson, report.WriteJSON)
	}
	if err := stopProfile(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// selectExperiments parses -exp's comma-separated list into the set of
// experiment names to run, expanding all. An unknown name is an error
// that lists the valid ones.
func selectExperiments(list string, exps []experiment) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, e := range exps {
			if e.name == name || name == "all" && e.inAll {
				want[e.name] = true
				found = true
			}
		}
		if !found {
			valid := []string{"all"}
			for _, e := range exps {
				valid = append(valid, e.name)
			}
			return nil, fmt.Errorf("easyio-bench: unknown experiment %q (valid: %s)", name, strings.Join(valid, " "))
		}
	}
	return want, nil
}

func writeJSON(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
