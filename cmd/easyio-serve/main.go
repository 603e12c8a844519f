// Command easyio-serve runs the deterministic multi-tenant serving
// experiment: an open-loop load generator (Poisson, burst and diurnal
// tenants) over the EasyIO filesystem, swept across offered load once
// per admission policy, printing latency-vs-load curves (p50/p99/p999),
// shed-rate and goodput tables.
//
// Usage:
//
//	easyio-serve                          # full sweep + million-request cell
//	easyio-serve -quick                   # short windows, no capacity cell
//	easyio-serve -workers 4               # output identical for any value
//	easyio-serve -json BENCH_serve.json   # committed artifact
//	easyio-serve -quick -cpuprofile serve.prof   # go tool pprof serve.prof
//
// Every reported number is a virtual-time observable, so repeated runs
// with the same -seed are byte-identical for any -workers value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/sim"
)

func main() {
	quick := flag.Bool("quick", false, "short measurement windows, skip the million-request cell (smoke test)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation goroutines (output is identical for any value)")
	jsonPath := flag.String("json", "", "write the serve report JSON to this file")
	million := flag.Bool("million", false, "force the million-request capacity cell even with -quick")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the whole run to this file")
	flag.Parse()

	stopProfile, err := bench.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bench.SimWorkers = max(*workers, 1)

	measure := 20 * sim.Millisecond
	runMillion := true
	if *quick {
		measure = 5 * sim.Millisecond
		runMillion = false
	}
	if *million {
		runMillion = true
	}

	fmt.Println("==== serve ====")
	report := bench.Serve(os.Stdout, measure, *seed, runMillion)

	if *jsonPath != "" {
		writeJSON(*jsonPath, report.WriteJSON)
	}
	if err := stopProfile(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func writeJSON(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
