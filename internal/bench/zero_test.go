package bench

import (
	"fmt"
	"testing"

	"github.com/easyio-sim/easyio/internal/apps"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/filebench"
	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/service"
	"github.com/easyio-sim/easyio/internal/sim"
)

// zeroWriters are the in-tree writers whose payload is nova's process-wide
// zero source, each run for a short window on a functional-data instance
// of a system whose write path copies out of it in its own way: EasyIO's
// DMA engines, Odinfs's delegates, NOVA-DMA's descriptors. run returns
// the operations (for the service, bulk writes) completed in the window.
var zeroWriters = []struct {
	name string
	run  func() (int64, error)
}{
	{"service", func() (int64, error) {
		inst, err := NewInstance(SysEasyIO, 2, InstanceOptions{Functional: true, Seed: 3})
		if err != nil {
			return 0, err
		}
		defer inst.Close()
		res, err := service.Run(inst.Eng, inst.RT, inst.CoreFS, service.Config{
			Cores: 2, Seed: 3, Warmup: sim.Millisecond, Measure: 4 * sim.Millisecond, Drain: 2 * sim.Millisecond,
			Tenants: []service.TenantSpec{
				{Name: "web", Class: core.ClassL, SLO: 200 * sim.Microsecond,
					Arrival: service.ArrivalSpec{Kind: service.ArrivalPoisson, Rate: 20_000},
					Mix:     service.Mix{Name: "point-read", ReadSize: 4 << 10}},
				{Name: "bulk", Class: core.ClassB,
					Arrival: service.ArrivalSpec{Kind: service.ArrivalPoisson, Rate: 2_000},
					Mix:     service.Mix{Name: "backup", WriteSize: 1 << 20, WriteEvery: 1}},
			},
		})
		if err != nil {
			return 0, err
		}
		return res.Tenants[1].Completed, nil
	}},
	{"apps", func() (int64, error) {
		inst, err := NewInstance(SysEasyIO, 2, InstanceOptions{Functional: true, Seed: 4})
		if err != nil {
			return 0, err
		}
		defer inst.Close()
		res, err := apps.Run(inst.Eng, inst.RT, inst.FS, apps.Config{
			Spec: apps.Snappy, Cores: 2, Warmup: sim.Millisecond, Measure: 8 * sim.Millisecond, Seed: 4,
		})
		if err != nil {
			return 0, err
		}
		return res.Ops, nil
	}},
	{"filebench", func() (int64, error) {
		inst, err := NewInstance(SysOdinfs, 2, InstanceOptions{Functional: true, Seed: 5})
		if err != nil {
			return 0, err
		}
		defer inst.Close()
		res, err := filebench.Run(inst.Eng, inst.RT, inst.FS, filebench.Config{
			Personality: filebench.Fileserver, Cores: 2, Files: 8, Warmup: sim.Millisecond, Measure: 4 * sim.Millisecond, Seed: 5,
		})
		if err != nil {
			return 0, err
		}
		return res.Ops, nil
	}},
	{"fxmark", func() (int64, error) {
		inst, err := NewInstance(SysNOVADMA, 2, InstanceOptions{Functional: true, Seed: 6})
		if err != nil {
			return 0, err
		}
		defer inst.Close()
		res, err := fxmark.Run(inst.Eng, inst.RT, inst.FS, fxmark.Config{
			Workload: fxmark.DWOM, Cores: 2, IOSize: 16 << 10, FileSize: 3<<20 + 4<<10,
			Warmup: sim.Millisecond, Measure: 2 * sim.Millisecond, Seed: 6,
		})
		if err != nil {
			return 0, err
		}
		return res.Ops, nil
	}},
}

// zeroSourceWritten returns a description of the first non-zero byte of
// the whole shared zero source, or "".
func zeroSourceWritten() string {
	for i, b := range nova.Zeros(nova.ZeroSourceSize) {
		if b != 0 {
			return fmt.Sprintf("byte %d is %#x", i, b)
		}
	}
	return ""
}

// TestZeroSourceStaysZero: after a functional-data run of each writer
// that takes its payload from nova's shared zero source, where writes
// really copy out of it, the whole block is still zero. A write source is
// read-only to every layer.
func TestZeroSourceStaysZero(t *testing.T) {
	for _, w := range zeroWriters {
		if ops, err := w.run(); err != nil || ops == 0 {
			t.Fatalf("%s: %d operations, %v", w.name, ops, err)
		}
		if bad := zeroSourceWritten(); bad != "" {
			t.Fatalf("after %s: shared zero source written: %s", w.name, bad)
		}
	}
}

// TestZeroSourceConcurrentWriters runs the writers as jobs on two
// goroutines, two functional engines copying out of the one zero block at
// once. The race detector (check.sh runs the tests with -race) flags any
// layer that writes into it; the block must still be zero afterwards.
func TestZeroSourceConcurrentWriters(t *testing.T) {
	defer func(w int) { SimWorkers = w }(SimWorkers)
	SimWorkers = 2
	ops := make([]int64, len(zeroWriters))
	errs := make([]error, len(zeroWriters))
	runJobs(len(zeroWriters), func(i int) { ops[i], errs[i] = zeroWriters[i].run() })
	for i, err := range errs {
		if err != nil || ops[i] == 0 {
			t.Fatalf("%s: %d operations, %v", zeroWriters[i].name, ops[i], err)
		}
	}
	if bad := zeroSourceWritten(); bad != "" {
		t.Fatalf("shared zero source written: %s", bad)
	}
}
