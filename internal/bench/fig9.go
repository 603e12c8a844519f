package bench

import (
	"io"

	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// Fig9Point is one (cores, throughput, latency) sample of a Figure 9
// curve.
type Fig9Point struct {
	Cores int
	Thr   float64 // ops/s
	Avg   sim.Duration
	P99   sim.Duration
}

// Fig9Panel is one of the four panels: a workload at an I/O size with one
// curve per system.
type Fig9Panel struct {
	Workload    fxmark.Workload
	IOSize      int
	Curves      map[System][]Fig9Point
	Peak        map[System]Fig9Point // throughput peak
	CoresAtPeak map[System]int       // minimum cores achieving ~peak
}

// fig9Cores is the core sweep (§6.2 uses up to 18 worker threads).
var fig9Cores = []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 24, 30, 36}

// fig9Job is one simulation cell of the figure: a (workload, I/O size,
// system, cores) point.
type fig9Job struct {
	wl     fxmark.Workload
	ioSize int
	sys    System
	cores  int
}

// fig9PanelJobs enumerates one panel's (system, cores) sweep in paper
// order.
func fig9PanelJobs(wl fxmark.Workload, ioSize int) []fig9Job {
	var jobs []fig9Job
	for _, sys := range AllSystems() {
		for _, cores := range fig9Cores {
			if cores > MaxWorkerCores(sys) {
				continue
			}
			jobs = append(jobs, fig9Job{wl, ioSize, sys, cores})
		}
	}
	return jobs
}

// runFig9Cells runs every cell as an independent job through runJobs:
// each builds its own instance, runs its measure window and closes the
// instance when done, so at most SimWorkers devices are alive at once.
// Points land in index-addressed slots, so the output is byte-identical
// for any worker count.
func runFig9Cells(jobs []fig9Job, measure sim.Duration, seed uint64) []Fig9Point {
	points := make([]Fig9Point, len(jobs))
	runJobs(len(jobs), func(i int) {
		j := jobs[i]
		inst, err := NewInstance(j.sys, j.cores, InstanceOptions{Seed: seed})
		if err != nil {
			panic(err)
		}
		defer inst.Close()
		res, err := fxmark.Run(inst.Eng, inst.RT, inst.FS, fxmark.Config{
			Workload: j.wl,
			Cores:    j.cores,
			Uthreads: inst.Uthreads(),
			IOSize:   j.ioSize,
			Measure:  measure,
			Seed:     seed,
		})
		if err != nil {
			panic(err)
		}
		points[i] = Fig9Point{
			Cores: j.cores,
			Thr:   res.Throughput(),
			Avg:   res.Lat.Mean(),
			P99:   res.Lat.P99(),
		}
	})
	return points
}

// assembleFig9Panel folds a panel's points into curves and peak tables.
func assembleFig9Panel(wl fxmark.Workload, ioSize int, jobs []fig9Job, points []Fig9Point) *Fig9Panel {
	p := &Fig9Panel{
		Workload:    wl,
		IOSize:      ioSize,
		Curves:      map[System][]Fig9Point{},
		Peak:        map[System]Fig9Point{},
		CoresAtPeak: map[System]int{},
	}
	for i, j := range jobs {
		p.Curves[j.sys] = append(p.Curves[j.sys], points[i])
	}
	for _, sys := range AllSystems() {
		// Peak and minimum cores achieving >= 97% of it.
		var peak Fig9Point
		for _, pt := range p.Curves[sys] {
			if pt.Thr > peak.Thr {
				peak = pt
			}
		}
		p.Peak[sys] = peak
		for _, pt := range p.Curves[sys] {
			if pt.Thr >= 0.97*peak.Thr {
				p.CoresAtPeak[sys] = pt.Cores
				break
			}
		}
	}
	return p
}

// RunFig9Panel sweeps one panel.
func RunFig9Panel(wl fxmark.Workload, ioSize int, measure sim.Duration, seed uint64) *Fig9Panel {
	jobs := fig9PanelJobs(wl, ioSize)
	return assembleFig9Panel(wl, ioSize, jobs, runFig9Cells(jobs, measure, seed))
}

// fig9PanelCfg names one of the figure's four panels.
type fig9PanelCfg struct {
	wl     fxmark.Workload
	ioSize int
	label  string
}

func fig9PanelCfgs() []fig9PanelCfg {
	return []fig9PanelCfg{
		{fxmark.DWAL, 16 << 10, "Write Thru. (16KB)"},
		{fxmark.DRBL, 16 << 10, "Read Thru. (16KB)"},
		{fxmark.DWAL, 64 << 10, "Write Thru. (64KB)"},
		{fxmark.DRBL, 64 << 10, "Read Thru. (64KB)"},
	}
}

// fig9AllJobs enumerates every cell of the whole figure, with offs[i]
// marking where panel i's slice starts (offs has len(cfgs)+1 entries).
func fig9AllJobs(cfgs []fig9PanelCfg) (jobs []fig9Job, offs []int) {
	offs = make([]int, len(cfgs)+1)
	for i, cfg := range cfgs {
		jobs = append(jobs, fig9PanelJobs(cfg.wl, cfg.ioSize)...)
		offs[i+1] = len(jobs)
	}
	return jobs, offs
}

// Fig9 runs all four panels and prints curves plus the cores-at-peak
// tables embedded in the paper's figure.
func Fig9(w io.Writer, measure sim.Duration, seed uint64) []*Fig9Panel {
	cfgs := fig9PanelCfgs()
	// All four panels' cells go into one job pool (184 cells on up to
	// SimWorkers goroutines).
	jobs, offs := fig9AllJobs(cfgs)
	points := runFig9Cells(jobs, measure, seed)
	panels := make([]*Fig9Panel, len(cfgs))
	for i, cfg := range cfgs {
		panels[i] = assembleFig9Panel(cfg.wl, cfg.ioSize,
			jobs[offs[i]:offs[i+1]], points[offs[i]:offs[i+1]])
	}
	for i, cfg := range cfgs {
		p := panels[i]
		fpf(w, "Figure 9 — %s: throughput vs latency by core count\n", cfg.label)
		for _, sys := range AllSystems() {
			tb := stats.NewTable("cores", "ops/s", "avg(us)", "p99(us)")
			for _, pt := range p.Curves[sys] {
				tb.AddRow(pt.Cores, pt.Thr, pt.Avg.Micros(), pt.P99.Micros())
			}
			fpf(w, "[%s]\n%s", sys, tb)
		}
		tb := stats.NewTable("system", "cores@peak", "peak ops/s", "avg(us)@peak", "p99(us)@peak")
		for _, sys := range AllSystems() {
			pk := p.Peak[sys]
			tb.AddRow(string(sys), p.CoresAtPeak[sys], pk.Thr, pk.Avg.Micros(), pk.P99.Micros())
		}
		fpf(w, "cores to reach peak:\n%s\n", tb)
	}
	return panels
}
