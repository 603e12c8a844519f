package bench

import (
	"io"
	"math"

	"github.com/easyio-sim/easyio/internal/apps"
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/filebench"
	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// fig10Cores is the application sweep (§6.3 runs within 16 cores).
var fig10Cores = []int{1, 2, 4, 8, 12, 16}

// Fig10 reproduces the eight real-world application throughput curves and
// prints each system's peak plus the speedup over NOVA.
func Fig10(w io.Writer, measure sim.Duration, seed uint64) {
	type appRun struct {
		name string
		run  func(inst *Instance, cores int) float64
	}
	runSpec := func(spec apps.Spec) func(*Instance, int) float64 {
		return func(inst *Instance, cores int) float64 {
			res, err := apps.Run(inst.Eng, inst.RT, inst.FS, apps.Config{
				Spec: spec, Cores: cores, Uthreads: inst.Uthreads(),
				Measure: measure, Seed: seed,
			})
			if err != nil {
				panic(err)
			}
			return res.Throughput()
		}
	}
	runFB := func(p filebench.Personality) func(*Instance, int) float64 {
		return func(inst *Instance, cores int) float64 {
			res, err := apps.RunFilebench(inst.Eng, inst.RT, inst.FS, p, cores, inst.Uthreads(), seed)
			if err != nil {
				panic(err)
			}
			return res.Throughput()
		}
	}
	var runs []appRun
	for _, spec := range apps.Specs() {
		runs = append(runs, appRun{spec.Name, runSpec(spec)})
	}
	runs = append(runs,
		appRun{"Fileserver", runFB(filebench.Fileserver)},
		appRun{"Webserver", runFB(filebench.Webserver)},
	)

	systems := AllSystems()
	// One job per (app, system, cores) sweep point; skipped cells (cores
	// beyond a system's budget) stay NaN and print as "-".
	thr := make([]float64, len(runs)*len(systems)*len(fig10Cores))
	runJobs(len(thr), func(i int) {
		app := runs[i/(len(systems)*len(fig10Cores))]
		sys := systems[(i/len(fig10Cores))%len(systems)]
		cores := fig10Cores[i%len(fig10Cores)]
		if cores > MaxWorkerCores(sys) {
			thr[i] = math.NaN()
			return
		}
		inst, err := NewInstance(sys, cores, InstanceOptions{Seed: seed})
		if err != nil {
			panic(err)
		}
		thr[i] = app.run(inst, cores)
		inst.Close()
	})
	for ai, app := range runs {
		tb := stats.NewTable(append([]string{"system"}, coreHeaders(fig10Cores)...)...)
		peak := map[System]float64{}
		for yi, sys := range systems {
			row := []any{string(sys)}
			for ci := range fig10Cores {
				v := thr[(ai*len(systems)+yi)*len(fig10Cores)+ci]
				if math.IsNaN(v) {
					row = append(row, "-")
					continue
				}
				row = append(row, v)
				if v > peak[sys] {
					peak[sys] = v
				}
			}
			tb.AddRow(row...)
		}
		fpf(w, "Figure 10 — %s throughput (ops/s) vs cores\n%s", app.name, tb)
		fpf(w, "speedup vs NOVA at peak: EasyIO %.2fx, NOVA-DMA %.2fx, Odinfs %.2fx\n\n",
			peak[SysEasyIO]/peak[SysNOVA], peak[SysNOVADMA]/peak[SysNOVA], peak[SysOdinfs]/peak[SysNOVA])
	}
}

// Fig11 reproduces the two §6.4 ablations: orderless file operation
// (single-thread write latency, EasyIO vs Naive) and two-level locking
// (shared-file write throughput under lock contention with colocated
// compute uthreads, work stealing disabled).
func Fig11(w io.Writer, measure sim.Duration, seed uint64) {
	// Left: orderless file operation. One job per (size, system) latency
	// probe; the table derives the reduction column from the slot pairs.
	sysPair := []System{SysEasyIO, SysNaive}
	lat := make([]sim.Duration, len(fig8Sizes)*len(sysPair))
	runJobs(len(lat), func(i int) {
		lat[i], _ = measureOpLatency(sysPair[i%len(sysPair)], "write", fig8Sizes[i/len(sysPair)])
	})
	tb := stats.NewTable("io-size", "EasyIO(us)", "Naive(us)", "reduction")
	for si, size := range fig8Sizes {
		e, n := lat[si*len(sysPair)], lat[si*len(sysPair)+1]
		tb.AddRow(sizeLabel(size), e.Micros(), n.Micros(), 1-float64(e)/float64(n))
	}
	fpf(w, "Figure 11 (left) — orderless file operation: write latency\n%s\n", tb)

	// Right: two-level locking under DWOM contention. Per §6.4.2: work
	// stealing disabled, two uthreads per core — one running DWOM on a
	// shared file, the other pure computation.
	lockCores := []int{2, 4, 6, 8}
	thr := make([]float64, len(lockCores)*len(sysPair))
	runJobs(len(thr), func(i int) {
		thr[i] = runLockContention(sysPair[i%len(sysPair)], lockCores[i/len(sysPair)], measure, seed)
	})
	tb2 := stats.NewTable("cores", "EasyIO(ops/s)", "Naive(ops/s)", "gain")
	for ci, cores := range lockCores {
		e, n := thr[ci*len(sysPair)], thr[ci*len(sysPair)+1]
		tb2.AddRow(cores, e, n, e/n-1)
	}
	fpf(w, "Figure 11 (right) — two-level locking: DWOM throughput with colocated compute\n%s\n", tb2)
}

// runLockContention measures shared-file write throughput with a compute
// uthread colocated on every core.
func runLockContention(sys System, cores int, measure sim.Duration, seed uint64) float64 {
	inst, err := NewInstance(sys, cores, InstanceOptions{Seed: seed})
	if err != nil {
		panic(err)
	}
	defer inst.Close()
	// Disable stealing per the paper: rebuild the runtime.
	inst.RT = caladan.New(inst.Eng, caladan.Options{Cores: cores, Seed: seed, DisableStealing: true})
	// Compute uthreads, one per core, never issuing I/O.
	end := sim.Time(2*sim.Millisecond) + sim.Time(measure)
	for i := 0; i < cores; i++ {
		inst.RT.Spawn(i, "compute", func(task *caladan.Task) {
			for task.Now() < end {
				task.Compute(2 * sim.Microsecond)
				task.Yield()
			}
		})
	}
	res, err := fxmark.Run(inst.Eng, inst.RT, inst.FS, fxmark.Config{
		Workload: fxmark.DWOM,
		Cores:    cores,
		Uthreads: cores, // one writer per core + the compute uthread
		IOSize:   16 << 10,
		Measure:  measure,
		Seed:     seed,
	})
	if err != nil {
		panic(err)
	}
	return res.Throughput()
}

// Fig12 reproduces the bandwidth-throttling experiment: a Web server
// (L-app, 64 KB reads, Poisson arrivals) colocated with a garbage
// collector (B-app, periodic 2 MB bulk writes), under No-Throttling,
// CPU-Throttling and DMA-Throttling.
func Fig12(w io.Writer, span sim.Duration, seed uint64) {
	modes := []string{"No-Throttling", "CPU-Throttling", "DMA-Throttling"}
	tb := stats.NewTable("mode", "idle-mean(us)", "gc-mean(us)", "gc-max(us)", "gc-p99(us)")
	type fig12Row struct {
		idleMean, gcMean, gcMax, gcP99 float64
	}
	rows := make([]fig12Row, len(modes))
	runJobs(len(modes), func(mi int) {
		mode := modes[mi]
		mgr := core.ManagerOptions{BLimit: 1e18} // effectively unlimited
		if mode == "DMA-Throttling" {
			mgr = core.ManagerOptions{BLimit: 2e9} // 2 GB/s (§6.4.3)
		}
		inst, err := NewInstance(SysEasyIO, 2, InstanceOptions{Seed: seed, Manager: mgr})
		if err != nil {
			panic(err)
		}
		fs := inst.CoreFS
		if mode == "DMA-Throttling" {
			fs.Manager().Start()
		}
		// nova's process-wide zero source feeds every store in the cell
		// (the web file's prefill and the GC's bulk writes), and one read
		// sink serves every request. The sink is write-only scratch: no
		// code inspects what a read returned, every uthread runs on this
		// cell's engine, and the sink never doubles as a source.
		zero := nova.Zeros(2 << 20)
		sink := make([]byte, 64<<10)
		// File set for the web server.
		webFile := mustIO(fs.Create(nil, "/web"))
		mustIO(fs.FS.WriteAt(nil, webFile, 0, zero[:1<<20]))
		gcFile := mustIO(fs.Create(nil, "/gcdst"))

		end := sim.Time(span)
		gcStart, gcEnd := end/3, 2*end/3
		var idle, busy stats.Recorder

		// Web server: Poisson arrivals, ~25k req/s, handled by a pool of
		// uthreads (open loop).
		g := rng.New(seed ^ 0x12)
		var spawnReq func(at sim.Time)
		reqPool := 0
		spawnReq = func(at sim.Time) {
			if at >= end {
				return
			}
			inst.Eng.At(at, func() {
				reqPool++
				inst.RT.Spawn(reqPool%2, "req", func(task *caladan.Task) {
					start := task.Now()
					mustIO(fs.ReadAt(task, webFile, 0, sink))
					d := sim.Duration(task.Now() - start)
					if start >= gcStart && start < gcEnd {
						busy.Add(d)
					} else {
						idle.Add(d)
					}
				})
			})
			spawnReq(at + sim.Time(g.Exp(40_000))) // mean 40 µs between arrivals
		}
		spawnReq(sim.Time(5 * sim.Microsecond))

		// GC: 2 MB bulk writes back-to-back during the middle window.
		inst.RT.Spawn(1, "gc", func(task *caladan.Task) {
			task.Sleep(sim.Duration(gcStart))
			for task.Now() < gcEnd {
				mustIO(fs.WriteAtClass(task, gcFile, 0, zero, core.ClassB))
				if mode == "CPU-Throttling" {
					// Caladan-style CPU quota on the GC: the tiny slice
					// still suffices to submit descriptors, so DMA
					// bandwidth consumption is unaffected (§6.4.3).
					task.Sleep(20 * sim.Microsecond)
				}
			}
		})
		inst.Eng.RunUntil(end)
		inst.Close()
		rows[mi] = fig12Row{idle.Mean().Micros(), busy.Mean().Micros(), busy.Max().Micros(), busy.P99().Micros()}
	})
	for mi, mode := range modes {
		r := rows[mi]
		tb.AddRow(mode, r.idleMean, r.gcMean, r.gcMax, r.gcP99)
	}
	fpf(w, "Figure 12 — Web-server latency under colocated GC\n%s\n", tb)
}
