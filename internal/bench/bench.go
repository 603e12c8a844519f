// Package bench contains one driver per table and figure of the paper's
// evaluation (§2.2 and §6). Each driver builds the systems under test,
// runs the workload on the virtual clock, and prints the same rows/series
// the paper reports. cmd/easyio-bench is the CLI; bench_test.go at the
// repository root exposes each driver as a testing.B benchmark.
package bench

import (
	"fmt"
	"io"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/odinfs"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// System names a filesystem under test.
type System string

// The compared systems (§6.1).
const (
	SysNOVA    System = "NOVA"
	SysNOVADMA System = "NOVA-DMA"
	SysOdinfs  System = "Odinfs"
	SysEasyIO  System = "EasyIO"
	SysNaive   System = "Naive" // §6.4 ablation
)

// AllSystems returns the four systems of §6.2/§6.3 in paper order.
func AllSystems() []System {
	return []System{SysNOVA, SysNOVADMA, SysOdinfs, SysEasyIO}
}

// OdinfsReserved is the total reserved delegate cores (12 per node, §6.1).
const OdinfsReserved = 24

// MachineCores is the testbed's physical core count (§6.1).
const MachineCores = 36

// Instance is one system under test, ready to run a workload.
type Instance struct {
	Sys       System
	Eng       *sim.Engine
	Dev       *pmem.Device
	RT        *caladan.Runtime
	FS        fsapi.FileSystem
	CoreFS    *core.FS // non-nil for EasyIO / Naive
	Cores     int      // worker cores available to the workload
	UtPerCore int      // uthreads per worker core (2 for EasyIO, §6.2)
}

// InstanceOptions tweaks construction.
type InstanceOptions struct {
	DeviceSize int64 // default 8 GB
	BusyPoll   bool  // EasyIO Fig 8 latency mode
	Functional bool  // keep data pages functional (default: ephemeral)
	Manager    core.ManagerOptions
	Seed       uint64
	// Engine, if set, hosts the instance on an existing engine (a cluster
	// domain's) instead of creating a fresh one.
	Engine *sim.Engine
}

// NewInstance builds a formatted, mounted system with a runtime sized for
// workerCores (plus Odinfs's reserved delegates).
func NewInstance(sys System, workerCores int, o InstanceOptions) (*Instance, error) {
	if o.DeviceSize == 0 {
		o.DeviceSize = 8 << 30
	}
	eng := o.Engine
	if eng == nil {
		eng = sim.NewEngine()
	}
	dev := pmem.New(eng, perfmodel.System(), o.DeviceSize)
	novaOpts := nova.Options{NumInodes: 16384, EphemeralData: !o.Functional}
	inst := &Instance{Sys: sys, Eng: eng, Dev: dev, Cores: workerCores, UtPerCore: 1}

	switch sys {
	case SysNOVA:
		if err := nova.Mkfs(dev, novaOpts); err != nil {
			return nil, err
		}
		fs, err := nova.Mount(dev, nova.CPUMover{}, novaOpts)
		if err != nil {
			return nil, err
		}
		inst.FS = fs
		inst.RT = caladan.New(eng, caladan.Options{Cores: workerCores, Seed: o.Seed})
	case SysNOVADMA:
		if err := nova.Mkfs(dev, novaOpts); err != nil {
			return nil, err
		}
		engines := core.NewEngines(dev, 8)
		fs, err := nova.Mount(dev, &nova.SyncDMAMover{Engines: engines}, novaOpts)
		if err != nil {
			return nil, err
		}
		inst.FS = fs
		inst.RT = caladan.New(eng, caladan.Options{Cores: workerCores, Seed: o.Seed})
	case SysOdinfs:
		if err := nova.Mkfs(dev, novaOpts); err != nil {
			return nil, err
		}
		fs, err := odinfs.New(dev, novaOpts)
		if err != nil {
			return nil, err
		}
		inst.RT = caladan.New(eng, caladan.Options{Cores: workerCores + OdinfsReserved, Seed: o.Seed, DisableStealing: true})
		cores := make([]int, OdinfsReserved)
		for i := range cores {
			cores[i] = workerCores + i
		}
		fs.StartWorkers(inst.RT, cores)
		inst.FS = fs
	case SysEasyIO, SysNaive:
		opts := core.Options{
			Nova:     novaOpts,
			Manager:  o.Manager,
			Naive:    sys == SysNaive,
			BusyPoll: o.BusyPoll,
		}
		if err := core.Format(dev, opts); err != nil {
			return nil, err
		}
		fs, err := core.Mount(dev, core.NewEngines(dev, 8), opts)
		if err != nil {
			return nil, err
		}
		inst.FS = fs
		inst.CoreFS = fs
		inst.RT = caladan.New(eng, caladan.Options{Cores: workerCores, Seed: o.Seed})
		inst.UtPerCore = 2
	default:
		return nil, fmt.Errorf("bench: unknown system %q", sys)
	}
	return inst, nil
}

// Close releases the instance's goroutines.
func (in *Instance) Close() { in.Eng.Shutdown() }

// Uthreads returns the worker uthread count for this system (§6.2: twice
// the cores for EasyIO, one per core otherwise).
func (in *Instance) Uthreads() int { return in.Cores * in.UtPerCore }

// MaxWorkerCores reports how many worker cores the system can use on the
// 36-core testbed (Odinfs reserves 24, §6.3).
func MaxWorkerCores(sys System) int {
	if sys == SysOdinfs {
		return MachineCores - OdinfsReserved
	}
	return MachineCores
}

// Fprintf is a tiny helper so drivers stay terse.
func fpf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

// newEngine and a raw device for the §2.2 microbenchmarks (Figs 2-4):
// single NUMA node, sustained-copy calibration.
func microDevice() (*sim.Engine, *pmem.Device) {
	eng := sim.NewEngine()
	return eng, pmem.New(eng, perfmodel.MicroNode(), 8<<30)
}

// newMicroEngines carves a raw DMA engine on a micro device.
func newMicroEngine(dev *pmem.Device, chans int) *dma.Engine {
	return dma.NewEngine(dev, 0, chans, 0)
}

// fpfS is Sprintf, terse.
func fpfS(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// mustIO unwraps a (value, error) return from a driver probe. Probes run
// against freshly formatted filesystems and idle DMA channels, where
// these operations cannot fail; if one ever does, the printed figures
// would be garbage, so the driver dies loudly instead.
func mustIO[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
