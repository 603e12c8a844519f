package main

import (
	"fmt"
	"io"
	"time"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/sim"
)

// sweepWorkers is bench.SimWorkers for the sweep: the cluster runner's
// goroutines, one per CPU of the 2-CPU reference host.
const sweepWorkers = 2

// fig9Sweep is the closed-loop Figure 9 sweep: every panel, system and
// core count as one cluster of unlinked domains, each building its own
// instance. It is the workload for instance set-up and the cluster
// runner, which the serving workloads bypass.
type fig9Sweep struct {
	window sim.Duration
	// short runs only the two 16 KB panels, one cluster each; the full
	// figure keeps 184 instances alive at once, too much memory for the
	// race detector.
	short bool
}

// The sweep runs at 5 ms rather than the figure's 20 ms: every cell keeps
// its device until the cluster finishes, so one sweep's peak RSS is about
// 1.5 GB here and 2.8 GB at 20 ms.
func sweepSpec(short bool) fig9Sweep {
	if short {
		return fig9Sweep{window: sim.Millisecond, short: true}
	}
	return fig9Sweep{window: 5 * sim.Millisecond}
}

func (sp fig9Sweep) rep(seed uint64, tr *tracer) (*rep, error) {
	r := &rep{}
	// Set-up: one instance of each compared system, the construction every
	// cell of the sweep repeats.
	t0 := time.Now()
	for _, sys := range bench.AllSystems() {
		inst, err := bench.NewInstance(sys, 1, bench.InstanceOptions{Seed: seed})
		if err != nil {
			return nil, err
		}
		inst.Close()
	}
	r.setup = time.Since(t0).Seconds()
	tr.span("set-up", t0)

	bench.SimWorkers = sweepWorkers
	t1 := time.Now()
	var panels []*bench.Fig9Panel
	if sp.short {
		panels = []*bench.Fig9Panel{
			bench.RunFig9Panel(fxmark.DWAL, 16<<10, sp.window, seed),
			bench.RunFig9Panel(fxmark.DRBL, 16<<10, sp.window, seed),
		}
	} else {
		panels = bench.Fig9(io.Discard, sp.window, seed)
	}
	r.host = time.Since(t1).Seconds()
	tr.span("measured phase", t1)

	var write, read, p99, cells, empty float64
	for _, p := range panels {
		for _, sys := range bench.AllSystems() {
			for _, pt := range p.Curves[sys] {
				ops := int64(pt.Thr*sp.window.Seconds() + 0.5)
				cells++
				r.attempted += ops
				r.completed += ops
				if ops <= 0 {
					empty++
					r.problems = append(r.problems, fmt.Sprintf("fig9 %s-%dK %s at %d cores completed no operations", p.Workload, p.IOSize>>10, sys, pt.Cores))
				}
				if sys != bench.SysEasyIO || p.IOSize != 16<<10 {
					continue
				}
				gbps := pt.Thr * float64(p.IOSize) / 1e9
				switch p.Workload {
				case fxmark.DWAL:
					write = max(write, gbps)
					if pt.Cores == 18 {
						p99 = pt.P99.Micros()
					}
				case fxmark.DRBL:
					read = max(read, gbps)
				}
			}
		}
	}
	r.results = []metric{
		{"lat_p99_us", p99, "us", virtual},
		{"write_gbps", write, "GB/s", virtual},
		{"read_gbps", read, "GB/s", virtual},
		{"cells", cells, "count", count},
		{"fail_ratio", empty / max(cells, 1), "ratio", count},
	}
	return r, nil
}
