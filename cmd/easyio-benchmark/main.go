package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Clock labels. Every printed metric names the clock it was read from, or
// "count" for a tally that involves no clock.
const (
	virtual = "virtual" // the modelled EasyIO system: deterministic per seed
	host    = "host"    // the simulator or tool itself: carries host noise
	count   = "count"   // a deterministic tally (events, findings, cells)
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Clock string
}

// rep is one repetition of a workload's unit of work. Every repetition of
// one seed does identical work, so results and stats repeat exactly and
// only the host times vary.
type rep struct {
	setup, host float64 // host seconds: set-up, then the measured phase
	attempted   int64   // operations offered in the measured phase
	completed   int64   // operations that completed
	failed      int64   // operations that errored or never finished
	results     []metric
	stats       layerStats
	problems    []string // failed output checks
}

// layerStats are the serving layers' counters (read after an untraced
// repetition) and gauges (sampled during the traced one). They stay zero
// on workloads the benchmark cannot observe them in: fxmark-sweep runs
// its engines inside bench.Fig9, and vet-cold simulates nothing.
type layerStats struct {
	events, switches, suspends, descs, shed, unfinished float64
	busyFrac, bLimitGBps, lGB, bGB                      float64

	queueMean, queueMax, runqMean, inflightMean, bSuspendedFrac, flowsMean float64
}

func (s *layerStats) counters() []metric {
	return []metric{
		{"sim.events", s.events, "count", count},
		{"caladan.switches", s.switches, "count", count},
		{"caladan.busy_frac", s.busyFrac, "ratio", virtual},
		{"core.suspends", s.suspends, "count", count},
		{"core.blimit_gbps", s.bLimitGBps, "GB/s", virtual},
		{"dma.l_gb", s.lGB, "GB", count},
		{"dma.b_gb", s.bGB, "GB", count},
		{"dma.descs", s.descs, "count", count},
		{"service.shed", s.shed, "count", count},
		{"service.unfinished", s.unfinished, "count", count},
	}
}

func (s *layerStats) gauges() []metric {
	return []metric{
		{"service.queue_mean", s.queueMean, "requests", virtual},
		{"service.queue_max", s.queueMax, "requests", virtual},
		{"caladan.runq_mean", s.runqMean, "uthreads", virtual},
		{"dma.inflight_mean", s.inflightMean, "descs", virtual},
		{"dma.b_suspended_frac", s.bSuspendedFrac, "ratio", virtual},
		{"pmem.flows_mean", s.flowsMean, "flows", virtual},
	}
}

// workload is one named set of inputs.
type workload struct {
	name string
	// nominal is the host seconds one repetition takes on a 2-CPU x86-64
	// host. --seconds divided by it fixes the repetition count, so two
	// commits compared with the same --seconds do the same work.
	nominal float64
	rep     func(seed uint64, tr *tracer) (*rep, error)
}

// workloads lists the benchmark's workloads. short shrinks every window so
// the package tests stay fast, even under the race detector.
func workloads(root string, short bool) []workload {
	return []workload{
		{"serve-qos", 0.45, qosSpec(short).rep},
		{"serve-firehose", 1.45, firehoseSpec(short).rep},
		{"fxmark-sweep", 2.4, sweepSpec(short).rep},
		{"vet-cold", 1.25, func(_ uint64, tr *tracer) (*rep, error) { return vetRep(root, tr) }},
	}
}

// outcome is one run: the untraced repetitions and, when traced, the
// traced rerun and the per-layer ledger.
type outcome struct {
	reps      int
	e2e       []metric // the end-to-end metrics (--trace 0)
	results   []metric // the workload's deterministic results
	layer     []metric // the per-layer metrics (--trace 1)
	attempted int64
	failed    int64
	problems  []string
}

// run executes w reps times untraced and, with tr non-nil, once more with
// tracing and then the ledger. A non-empty cpuprofile names the file that
// receives a CPU profile of the traced rerun.
func run(w workload, seed uint64, reps int, root string, sz probeSize, tr *tracer, cpuprofile string) (*outcome, error) {
	out := &outcome{reps: reps}
	var first *rep
	var setups, hosts []float64
	var rss float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < reps; i++ {
		// Collect the previous repetition's garbage here rather than on the
		// next repetition's clock.
		runtime.GC()
		r, err := w.rep(seed, nil)
		if err != nil {
			return nil, err
		}
		if first == nil {
			// Peak RSS is the first repetition's, in a fresh process: later
			// repetitions reuse the heap the first one reserved but touch
			// more of its pages, so the high-water mark would creep with
			// the repetition count.
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
			first = r
		} else if !sameResults(first, r) {
			out.problems = append(out.problems, fmt.Sprintf("repetition %d diverged from repetition 0 on the same seed", i))
		}
		setups = append(setups, r.setup)
		hosts = append(hosts, r.host)
		out.attempted += r.attempted
		out.failed += r.failed
		out.problems = append(out.problems, r.problems...)
		if r.completed == 0 {
			out.problems = append(out.problems, "a repetition completed no operations")
		}
	}
	runtime.ReadMemStats(&ms1)
	// Interference from other tenants of a shared host only ever slows a
	// repetition, and every repetition does identical work, so the fastest
	// one is the steadiest estimate of the measured phase: in ten-seed
	// trials on a 2-CPU host its quartile spread was at most the median's,
	// and a third of it when the interference came in bursts. Set-up stays
	// a median.
	hostS := slices.Min(hosts)
	out.e2e = []metric{
		{"setup_s", median(setups), "s", host},
		{"host_s", hostS, "s", host},
		{"host_us_per_op", hostS * 1e6 / float64(max(first.completed, 1)), "us", host},
		{"peak_rss_mb", rss, "MB", host},
	}
	out.results = first.results
	if tr == nil {
		return out, nil
	}

	var prof *os.File
	if cpuprofile != "" {
		var err error
		if prof, err = os.Create(cpuprofile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
	}
	t0 := time.Now()
	traced, err := w.rep(seed, tr)
	tr.span(w.name+" traced rerun", t0)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	if !sameResults(first, traced) {
		out.problems = append(out.problems, "the traced rerun's results differ from the untraced run's")
	}
	out.problems = append(out.problems, traced.problems...)
	ledger, err := runLedger(seed, root, sz, tr)
	if err != nil {
		return nil, err
	}
	completed := float64(first.completed) * float64(reps)
	out.layer = append(first.stats.counters(), traced.stats.gauges()...)
	out.layer = append(out.layer,
		metric{"go.mallocs_per_op", float64(ms1.Mallocs-ms0.Mallocs) / completed, "allocs", host},
		// Less the collection forced before each repetition.
		metric{"go.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/float64(reps) - 1, "count", host},
		metric{"trace.overhead", traced.host / median(hosts), "ratio", host},
	)
	out.layer = append(out.layer, ledger...)
	return out, nil
}

// sameResults reports whether two repetitions produced identical results,
// layer counters included.
func sameResults(a, b *rep) bool {
	if len(a.results) != len(b.results) || a.attempted != b.attempted || a.completed != b.completed || a.failed != b.failed {
		return false
	}
	for i := range a.results {
		if a.results[i] != b.results[i] {
			return false
		}
	}
	ac, bc := a.stats.counters(), b.stats.counters()
	for i := range ac {
		// The traced rerun's sampler adds its own events; every other
		// counter must match.
		if ac[i] != bc[i] && ac[i].Name != "sim.events" {
			return false
		}
	}
	return true
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// moduleRoot finds the EasyIO module root above the working directory, so
// the benchmark runs from the checkout root and from its own directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module github.com/easyio-sim/easyio\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no github.com/easyio-sim/easyio go.mod above the working directory")
		}
		dir = parent
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints every metric by name, unit and clock, then the result
// line: end-to-end metrics untraced, per-layer metrics traced.
func report(w io.Writer, name string, seed uint64, o *outcome, traced bool) error {
	fmt.Fprintf(w, "workload %s seed %d repetitions %d | nproc %d GOMAXPROCS %d %s\n",
		name, seed, o.reps, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	section := func(kind string, ms []metric) {
		for _, m := range ms {
			fmt.Fprintf(w, "%-7s %-40s %16.6g %-8s %s\n", kind, m.Name, m.Value, m.Unit, m.Clock)
		}
	}
	section("e2e", o.e2e)
	section("result", o.results)
	section("layer", o.layer)
	for _, p := range o.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	res := jsonResult{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	emit := o.e2e
	if traced {
		emit = o.layer
	}
	for _, m := range emit {
		res.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-qos, serve-firehose, fxmark-sweep, vet-cold, or all")
	seed := flag.Uint64("seed", 42, "seed every input is generated from (baseline 42, hold-out 7)")
	seconds := flag.Int("seconds", 10, "measured host seconds on the reference host; sets the repetition count")
	trace := flag.Int("trace", 0, "1 adds the traced rerun and the per-layer ledger, and prints per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write Chrome trace-event JSON to this file")
	cpuprofile := flag.String("cpuprofile", "", "with -trace 1, write a CPU profile of the traced rerun to this file")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || (*trace == 0 && (*traceOut != "" || *cpuprofile != "")) {
		flag.Usage()
		os.Exit(2)
	}
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	all := workloads(root, false)
	if *name == "all" {
		if *traceOut != "" || *cpuprofile != "" {
			fatal(errors.New("-trace-out and -cpuprofile take one workload"))
		}
		os.Exit(runAll(all))
	}
	var w *workload
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil {
		flag.Usage()
		os.Exit(2)
	}

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	reps := max(3, int(float64(*seconds)/w.nominal+0.5))
	o, err := run(*w, *seed, reps, root, fullProbes, tr, *cpuprofile)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		if err := tr.write(*traceOut); err != nil {
			fatal(err)
		}
	}
	if err := report(os.Stdout, w.name, *seed, o, tr != nil); err != nil {
		fatal(err)
	}
	if len(o.problems) > 0 {
		os.Exit(1)
	}
}

// runAll re-executes this binary once per workload, one child at a time,
// so each workload's peak RSS is its own. It returns the exit status.
func runAll(ws []workload) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	status := 0
	for _, w := range ws {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "easyio-benchmark: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "easyio-benchmark: %v\n", err)
	os.Exit(2)
}
