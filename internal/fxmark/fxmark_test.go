package fxmark

import (
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

func novaSetup(t *testing.T, cores int) (*sim.Engine, *caladan.Runtime, fsapi.FileSystem) {
	t.Helper()
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 1<<30)
	opts := nova.Options{NumInodes: 1024, EphemeralData: true}
	if err := nova.Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := nova.Mount(dev, nova.CPUMover{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: cores, Seed: 2})
	return eng, rt, fs
}

func TestDWALProducesOps(t *testing.T) {
	eng, rt, fs := novaSetup(t, 2)
	res, err := Run(eng, rt, fs, Config{Workload: DWAL, Cores: 2, IOSize: 16 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
	if res.Ops < 100 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Lat.Count() == 0 || res.Lat.Mean() <= 0 {
		t.Fatal("no latencies recorded")
	}
	// 16KB NOVA append ~= 6us -> ~160kops/s on 2 cores.
	thr := res.Throughput()
	if thr < 50_000 || thr > 1_000_000 {
		t.Fatalf("throughput = %.0f ops/s, implausible", thr)
	}
}

func TestDRBLThroughputScalesWithCores(t *testing.T) {
	run := func(cores int) float64 {
		eng, rt, fs := novaSetup(t, cores)
		res, err := Run(eng, rt, fs, Config{Workload: DRBL, Cores: cores, IOSize: 16 << 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		eng.Shutdown()
		return res.Throughput()
	}
	t1, t4 := run(1), run(4)
	if t4 < 2.5*t1 {
		t.Fatalf("DRBL did not scale: 1 core %.0f, 4 cores %.0f", t1, t4)
	}
}

func TestDWOMContention(t *testing.T) {
	// Shared-file overwrites: per-op latency grows with workers (lock).
	run := func(cores int) sim.Duration {
		eng, rt, fs := novaSetup(t, cores)
		res, err := Run(eng, rt, fs, Config{Workload: DWOM, Cores: cores, IOSize: 16 << 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		eng.Shutdown()
		return res.Lat.Mean()
	}
	l1, l8 := run(1), run(8)
	if l8 < 2*l1 {
		t.Fatalf("no contention visible: 1 core %v, 8 cores %v", l1, l8)
	}
}

func TestEasyIORunsWithDoubleUthreads(t *testing.T) {
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 1<<30)
	opts := core.Options{Nova: nova.Options{NumInodes: 1024, EphemeralData: true}}
	if err := core.Format(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: 2, Seed: 3})
	res, err := Run(eng, rt, fs, Config{Workload: DWAL, Cores: 2, Uthreads: 4, IOSize: 64 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
	if res.Ops < 100 {
		t.Fatalf("ops = %d", res.Ops)
	}
	// Async writes at 64KB should exceed what 2 sync cores could do:
	// 2 cores / ~15us per sync op = ~133k; EasyIO should beat it.
	if thr := res.Throughput(); thr < 140_000 {
		t.Fatalf("EasyIO 64K append throughput = %.0f ops/s, expected > 140k", thr)
	}
}
