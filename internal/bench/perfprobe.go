package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"github.com/easyio-sim/easyio/internal/sim"
)

// KernelPerf reports the host-side cost of the simulation kernel: how
// fast the engine dispatches events and how much it allocates doing so.
// These are wall-clock metrics about the simulator itself (not virtual
// time), recorded so perf regressions in the kernel show up in review as
// BENCH_sim.json churn.
type KernelPerf struct {
	EventsPerSec    float64 `json:"events_per_sec"`
	NsPerEvent      float64 `json:"ns_per_event"`
	AllocsPerEvent  float64 `json:"allocs_per_event"`
	NsPerSwitch     float64 `json:"ns_per_proc_switch"`
	AllocsPerSwitch float64 `json:"allocs_per_proc_switch"`
}

// ExperimentTiming is the wall-clock cost of one easyio-bench experiment.
type ExperimentTiming struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
}

// ScalingRow is one wall-clock measurement of the cluster-run fig9 cell
// fleet at a fixed -simworkers value.
type ScalingRow struct {
	SimWorkers int     `json:"simworkers"`
	WallMS     float64 `json:"wall_ms"`
}

// Report is the machine-readable benchmark summary easyio-bench emits
// with -benchjson.
type Report struct {
	Kernel      KernelPerf   `json:"kernel"`
	Workers     int          `json:"workers"`
	SimWorkers  int          `json:"simworkers,omitempty"`
	Fig9Scaling []ScalingRow `json:"fig9_scaling,omitempty"`
	// Fig9Speedup4W is wall(simworkers=1) / wall(simworkers=4) for the
	// fig9 cell fleet — the tentpole's parallel-virtual-time payoff. On a
	// single-CPU host this sits near 1.0 (GOMAXPROCS caps real
	// parallelism); the scaling test asserts >= 2x only when the host has
	// at least 4 CPUs.
	Fig9Speedup4W float64            `json:"fig9_speedup_4w,omitempty"`
	Experiments   []ExperimentTiming `json:"experiments,omitempty"`
}

// WriteJSON renders the report with stable formatting.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MeasureFig9Scaling times the full fig9 cell fleet (all four panels,
// one cluster) at -simworkers 1, 2 and 4, verifying along the way that
// every worker count computes identical points, and returns the rows
// plus the 4-worker speedup. The rows are wall-clock host metrics — the
// one number in the report that legitimately varies across machines.
func MeasureFig9Scaling(measure sim.Duration, seed uint64) ([]ScalingRow, float64) {
	old := SimWorkers
	defer func() { SimWorkers = old }()
	jobs, _ := fig9AllJobs(fig9PanelCfgs())
	var rows []ScalingRow
	var base []Fig9Point
	wall := map[int]float64{}
	for _, w := range []int{1, 2, 4} {
		SimWorkers = w
		t0 := time.Now()
		points := runFig9Cells(jobs, measure, seed)
		wall[w] = float64(time.Since(t0).Microseconds()) / 1000
		rows = append(rows, ScalingRow{SimWorkers: w, WallMS: wall[w]})
		if base == nil {
			base = points
		} else {
			for i := range points {
				if points[i] != base[i] {
					panic(fpfS("bench: fig9 cell %d diverged at simworkers=%d", i, w))
				}
			}
		}
	}
	return rows, wall[1] / wall[4]
}

// mallocs reads the cumulative allocation counter.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// MeasureKernelPerf times the two hot paths of the event kernel: raw
// event dispatch (a self-rescheduling timer chain) and the full
// schedule→sleep→resume coroutine round-trip.
func MeasureKernelPerf() KernelPerf {
	var kp KernelPerf

	// Raw event dispatch.
	const events = 1 << 20
	e := sim.NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < events {
			e.After(1, fn)
		}
	}
	e.After(1, fn)
	a0 := mallocs()
	t0 := time.Now()
	e.Run()
	el := time.Since(t0)
	a1 := mallocs()
	kp.NsPerEvent = float64(el.Nanoseconds()) / events
	kp.EventsPerSec = float64(events) / el.Seconds()
	kp.AllocsPerEvent = float64(a1-a0) / events

	// Coroutine round-trips. A warmup lap primes the event pool so the
	// steady-state path is what gets measured.
	const switches = 1 << 18
	e2 := sim.NewEngine()
	e2.StartProc("warm", func(p *sim.Proc) { p.Sleep(1) })
	e2.Run()
	var sel time.Duration
	var sa0, sa1 uint64
	e2.StartProc("probe", func(p *sim.Proc) {
		sa0 = mallocs()
		st := time.Now()
		for i := 0; i < switches; i++ {
			p.Sleep(1)
		}
		sel = time.Since(st)
		sa1 = mallocs()
	})
	e2.Run()
	e2.Shutdown()
	kp.NsPerSwitch = float64(sel.Nanoseconds()) / switches
	kp.AllocsPerSwitch = float64(sa1-sa0) / switches
	return kp
}
