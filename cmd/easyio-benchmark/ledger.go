package main

import (
	"fmt"
	"time"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/service"
	"github.com/easyio-sim/easyio/internal/sim"
)

// probeSize fixes how much work each ledger probe does.
type probeSize struct {
	yields, descs, flows, fsOps, builds int
}

var (
	fullProbes  = probeSize{yields: 1 << 16, descs: 1 << 14, flows: 1 << 14, fsOps: 1 << 12, builds: 5}
	shortProbes = probeSize{yields: 1 << 10, descs: 1 << 8, flows: 1 << 8, fsOps: 1 << 6, builds: 1}
)

// probeFile is the working-set size of the filesystem probes.
const probeFile = 4 << 20

// probe is one ledger entry: run reports host time per call in unit, and
// the ledger keeps the median of reps runs.
type probe struct {
	name, unit string
	reps       int
	run        func() (float64, error)
}

// runLedger times one public entry point per layer from outside the
// program, the per-layer host-cost record: each probe repeats a fixed
// call and reports host time per call, and set-up probes report the
// median of several builds. The same probes run in every traced run,
// whatever the workload, so the record compares across commits.
func runLedger(seed uint64, root string, sz probeSize, tr *tracer) ([]metric, error) {
	t0 := time.Now()
	kp := bench.MeasureKernelPerf()
	tr.span("probe sim kernel", t0)
	out := []metric{
		{"sim.probe_event_ns", kp.NsPerEvent, "ns", host},
		{"sim.probe_proc_switch_ns", kp.NsPerSwitch, "ns", host},
	}

	probes := []probe{
		{"caladan.probe_yield_ns", "ns", 1, func() (float64, error) { return probeYield(seed, sz.yields), nil }},
		{"dma.probe_submit_ns", "ns", 1, func() (float64, error) { return probeDMA(sz.descs) }},
		{"pmem.probe_flow_ns", "ns", 1, func() (float64, error) { return probeFlows(sz.flows), nil }},
		{"nova.probe_read4k_ns", "ns", 1, func() (float64, error) { return probeFS(bench.SysNOVA, seed, sz.fsOps, 4<<10, false) }},
		{"nova.probe_write16k_ns", "ns", 1, func() (float64, error) { return probeFS(bench.SysNOVA, seed, sz.fsOps, 16<<10, true) }},
		{"core.probe_read4k_ns", "ns", 1, func() (float64, error) { return probeFS(bench.SysEasyIO, seed, sz.fsOps, 4<<10, false) }},
		{"core.probe_write16k_ns", "ns", 1, func() (float64, error) { return probeFS(bench.SysEasyIO, seed, sz.fsOps, 16<<10, true) }},
	}
	for _, sys := range bench.AllSystems() {
		probes = append(probes, probe{"bench.probe_new_instance_ms." + string(sys), "ms", sz.builds,
			func() (float64, error) { return probeNewInstance(sys, seed) }})
	}
	probes = append(probes,
		probe{"fxmark.probe_start_ms", "ms", sz.builds, func() (float64, error) { return probeFxmarkStart(seed) }},
		probe{"service.probe_new_ms", "ms", sz.builds, func() (float64, error) { return probeServiceNew(seed) }},
	)
	for _, p := range probes {
		var vs []float64
		for i := 0; i < p.reps; i++ {
			t := time.Now()
			v, err := p.run()
			tr.span("probe "+p.name, t)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			vs = append(vs, v)
		}
		out = append(out, metric{p.name, median(vs), p.unit, host})
	}

	vet, err := vetPhases(root, tr)
	if err != nil {
		return nil, err
	}
	return append(out, vet...), nil
}

// probeYield is the caladan uthread switch: two uthreads on one core
// yielding to each other.
func probeYield(seed uint64, n int) float64 {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	rt := caladan.New(eng, caladan.Options{Cores: 1, Seed: seed})
	for i := 0; i < 2; i++ {
		rt.Spawn(0, fmt.Sprintf("yield-%d", i), func(t *caladan.Task) {
			for j := 0; j < n; j++ {
				t.Yield()
			}
		})
	}
	t0 := time.Now()
	eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(2*n)
}

// probeDMA is one 16 KB write descriptor from submit to completion on an
// idle channel, each completion submitting the next.
func probeDMA(n int) (float64, error) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	ch := dma.NewEngine(pmem.New(eng, perfmodel.System(), 1<<30), 0, 1, 0).Channel(0)
	var done int
	var subErr error
	d := &dma.Desc{Write: true, PMOff: 1 << 20, Size: 16 << 10}
	d.OnComplete = func(uint64) {
		if done++; done < n && subErr == nil {
			_, subErr = ch.Submit(d)
		}
	}
	t0 := time.Now()
	if _, err := ch.Submit(d); err != nil {
		return 0, err
	}
	eng.Run()
	ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
	return ns, subErr
}

// probeFlows is a pmem flow from StartFlow to done with 8 flows sharing
// the device, so every start and finish recomputes the bandwidth shares.
func probeFlows(n int) float64 {
	const concurrent = 8
	eng := sim.NewEngine()
	defer eng.Shutdown()
	dev := pmem.New(eng, perfmodel.System(), 1<<30)
	started := 0
	var next func()
	next = func() {
		if started < n {
			started++
			dev.StartFlow(pmem.FlowSpec{Write: true, Kind: pmem.FlowCPU, Bytes: 4 << 10, OnDone: next})
		}
	}
	t0 := time.Now()
	for i := 0; i < concurrent; i++ {
		next()
	}
	eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeFS is one read or write through a system's filesystem from a
// single uthread, cycling over a prefilled file.
func probeFS(sys bench.System, seed uint64, n, size int, write bool) (float64, error) {
	inst, err := bench.NewInstance(sys, 1, bench.InstanceOptions{Seed: seed})
	if err != nil {
		return 0, err
	}
	defer inst.Close()
	var fs fsapi.FileSystem = inst.FS
	f, err := fs.Create(nil, "/probe")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := fs.WriteAt(nil, f, 0, make([]byte, probeFile)); err != nil {
		return 0, err
	}
	var opErr error
	inst.RT.Spawn(0, "probe", func(t *caladan.Task) {
		buf := make([]byte, size)
		for i := 0; i < n && opErr == nil; i++ {
			off := int64(i%(probeFile/size)) * int64(size)
			if write {
				_, opErr = fs.WriteAt(t, f, off, buf)
			} else {
				_, opErr = fs.ReadAt(t, f, off, buf)
			}
		}
	})
	t0 := time.Now()
	inst.Eng.Run()
	ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
	return ns, opErr
}

// probeNewInstance is bench.NewInstance for one system on one worker core,
// in milliseconds.
func probeNewInstance(sys bench.System, seed uint64) (float64, error) {
	t0 := time.Now()
	inst, err := bench.NewInstance(sys, 1, bench.InstanceOptions{Seed: seed})
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return 0, err
	}
	inst.Close()
	return ms, nil
}

// probeFxmarkStart is fxmark.Start's set-up (file creation and prefill,
// worker spawn) for one DRBL cell, in milliseconds.
func probeFxmarkStart(seed uint64) (float64, error) {
	inst, err := bench.NewInstance(bench.SysEasyIO, 4, bench.InstanceOptions{Seed: seed})
	if err != nil {
		return 0, err
	}
	defer inst.Close()
	t0 := time.Now()
	_, err = fxmark.Start(inst.Eng, inst.RT, inst.FS, fxmark.Config{
		Workload: fxmark.DRBL, Cores: 4, Uthreads: inst.Uthreads(), IOSize: 16 << 10, Seed: seed,
	})
	return float64(time.Since(t0).Nanoseconds()) / 1e6, err
}

// probeServiceNew is service.New's set-up (tenant state, file prefill,
// worker spawn) for the serve-qos tenants, in milliseconds. The server
// then runs an empty millisecond so its lifecycle completes.
func probeServiceNew(seed uint64) (float64, error) {
	sp := qosSpec(true)
	inst, err := bench.NewInstance(bench.SysEasyIO, sp.cores, bench.InstanceOptions{Seed: seed})
	if err != nil {
		return 0, err
	}
	defer inst.Close()
	t0 := time.Now()
	srv, err := service.New(inst.Eng, inst.RT, inst.CoreFS, service.Config{
		Cores: sp.cores, Tenants: sp.tenants, Policy: sp.policy,
		Warmup: sim.Millisecond, Measure: sim.Millisecond, Drain: sim.Millisecond, Seed: seed,
	})
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return 0, err
	}
	srv.StartManager()
	inst.Eng.RunUntil(srv.End())
	srv.Finish()
	return ms, nil
}
