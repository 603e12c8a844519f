// Command easyio-bench regenerates every table and figure of the EasyIO
// paper's evaluation on the simulated testbed.
//
// Usage:
//
//	easyio-bench -exp all            # everything (minutes)
//	easyio-bench -exp fig9 -quick    # one figure, short windows
//	easyio-bench -exp fig2,fig3,table2
//	easyio-bench -exp all -workers 8 -benchjson BENCH_sim.json
//	easyio-bench -exp fig9 -quick -cpuprofile fig9.prof  # go tool pprof fig9.prof
//
// Experiments: fig1 fig2 fig3 fig4 fig8 fig9 fig10 fig11 fig12 table1
// table2. Independent sweep points (Figure 9's 184 cells among them) fan
// out across -workers goroutines; the output is byte-identical for any
// worker count (each sweep point is its own virtual machine, and results
// are printed in sweep order).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments (fig1..fig12, table1, table2, ablations, all)")
	quick := flag.Bool("quick", false, "short measurement windows (smoke test)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	points := flag.Int("crashpoints", 1000, "crash states per Table 2 workload")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation goroutines (output is identical for any value)")
	benchjson := flag.String("benchjson", "", "write kernel perf + per-experiment wall-clock JSON to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the whole run to this file")
	flag.Parse()

	stopProfile, err := bench.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bench.SimWorkers = max(*workers, 1)

	measure := 20 * sim.Millisecond
	raw := 10 * sim.Millisecond
	appMeasure := 120 * sim.Millisecond
	if *quick {
		measure = 4 * sim.Millisecond
		raw = 3 * sim.Millisecond
		appMeasure = 30 * sim.Millisecond
		if *points > 100 {
			*points = 100
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	ok := true
	report := &bench.Report{Workers: bench.SimWorkers}
	run := func(name string, fn func()) {
		if all || want[name] {
			fmt.Printf("==== %s ====\n", name)
			start := time.Now()
			fn()
			report.Experiments = append(report.Experiments, bench.ExperimentTiming{
				Name:   name,
				WallMS: float64(time.Since(start).Microseconds()) / 1000,
			})
		}
	}

	run("table1", func() { bench.Table1(os.Stdout) })
	run("fig1", func() { bench.Fig1(os.Stdout) })
	run("fig2", func() { bench.Fig2(os.Stdout, raw) })
	run("fig3", func() { bench.Fig3(os.Stdout, raw) })
	run("fig4", func() { bench.Fig4(os.Stdout, raw) })
	run("fig8", func() { bench.Fig8(os.Stdout) })
	run("fig9", func() { bench.Fig9(os.Stdout, measure, *seed) })
	run("fig10", func() { bench.Fig10(os.Stdout, appMeasure, *seed) })
	run("fig11", func() { bench.Fig11(os.Stdout, measure, *seed) })
	run("fig12", func() { bench.Fig12(os.Stdout, 6*sim.Millisecond, *seed) })
	run("ablations", func() {
		bench.AblationDSAMode(os.Stdout, 4*sim.Millisecond, *seed)
		bench.AblationPollCost(os.Stdout, measure, *seed)
		bench.AblationOffloadThreshold(os.Stdout)
	})
	run("table2", func() {
		if !bench.Table2(os.Stdout, *points) {
			ok = false
		}
	})

	if *benchjson != "" {
		report.Kernel = bench.MeasureKernelPerf()
		report.Fig9Scaling, report.Fig9Speedup4W = bench.MeasureFig9Scaling(measure, *seed)
		f, err := os.Create(*benchjson)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := stopProfile(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}
